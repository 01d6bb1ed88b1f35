"""Evaluation harness: filter ratio, brute-force oracle, and FR curves.

F(A) = φ(∅) − φ(A) scores a filter set A, and FR(A) = F(A) / F(V), an exact
fraction that is 1 when F(V) = 0, is the share of removable redundancy it
removes.  Callers take φ(∅), F(V) from ``scoring_constants`` once per call.

A filter set is a frozenset of node indices.  Its provenance is kept only
where it is reported: the algorithm and k on each ``FRRow``, the seed on
each of the row's ``PlacementResult`` trials, and the CLI's own JSON.

An FR cell is one (algorithm, k) pair.  ``fr_curve`` sets each cell up
once (rand-w's weights, for instance), picks every trial, and scores all of
the cell's filter sets in one packed pass (``propagation.phi_totals``).
``fr_curve`` returns the curve as a tuple of ``FRRow``, one per cell.
"""

import hashlib
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from math import comb

from .graph import CGraph
from .placement import (
    as_ctree,
    eligible_nodes,
    greedy_1,
    greedy_all,
    greedy_l,
    greedy_max,
    optimal_unbounded,
    random_picker,
    tree_dp,
)
from .propagation import objective_f, phi_total, phi_totals


class BudgetExceededError(Exception):
    """Exhaustive search would evaluate more subsets than the budget allows."""


RANDOMIZED_ALGORITHMS = ("rand-k", "rand-i", "rand-w")

# name -> prepare(g, k), which does the per-(g, k) setup once and returns
# pick(seed); the order is the CLI's `choices` order
_RUNNERS = {
    "greedy-1": lambda g, k: lambda seed: greedy_1(g, k),
    "greedy-all": lambda g, k: lambda seed: greedy_all(g, k),
    "greedy-max": lambda g, k: lambda seed: greedy_max(g, k),
    "greedy-l": lambda g, k: lambda seed: greedy_l(g, k),
    "tree-dp": lambda g, k: lambda seed: tree_dp(as_ctree(g), k),
    "optimal-unbounded": lambda g, k: lambda seed: optimal_unbounded(g),
    "rand-k": lambda g, k: random_picker(g, k, "rand_k"),
    "rand-i": lambda g, k: random_picker(g, k, "rand_i"),
    "rand-w": lambda g, k: random_picker(g, k, "rand_w"),
}
ALGORITHMS = tuple(_RUNNERS)


def run_algorithm(g: CGraph, name: str, k: int, seed: int | None = 0) -> frozenset[int]:
    """Run one placement algorithm by CLI name."""
    prepare = _RUNNERS.get(name)
    if prepare is None:
        raise ValueError(f"unknown algorithm {name!r}")
    return prepare(g, k)(seed)


def scoring_constants(g: CGraph) -> tuple[int, int]:
    """(φ(∅), F(V)): the two constants of ``g`` that every F and FR rests on."""
    phi_empty = phi_total(g, ())
    return phi_empty, phi_empty - phi_total(g, eligible_nodes(g))


def ratio(f, fv: int) -> Fraction:
    """F / F(V) as an exact fraction; 1 when the graph has no redundancy."""
    return Fraction(1) if fv == 0 else Fraction(f, fv)


def max_objective(g: CGraph) -> int:
    """F(V): the objective with filters everywhere, i.e. all removable redundancy."""
    return scoring_constants(g)[1]


def filter_ratio(g: CGraph, filters) -> Fraction:
    """F(A) / F(V) as an exact fraction; 1 when the graph has no redundancy."""
    return ratio(objective_f(g, filters), max_objective(g))


# candidate subsets scored per packed pass in ``oracle``
_ORACLE_CHUNK = 256


def oracle(g: CGraph, k: int, budget: int = 10**6) -> tuple[frozenset[int], int]:
    """Exhaustively maximize the objective over all filter sets of size <= k.

    Among maximizers, the smallest set wins, then the lexicographically
    smallest index tuple.  Raises BudgetExceededError before starting if
    the subset count is out of reach.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    eligible = eligible_nodes(g)
    k_eff = min(k, len(eligible))
    total = sum(comb(len(eligible), j) for j in range(k_eff + 1))
    if total > budget:
        raise BudgetExceededError(
            f"{total} candidate subsets exceed the budget of {budget}"
        )
    best_members: tuple[int, ...] = ()
    phi_empty = best_phi = phi_total(g, ())
    candidates = (c for size in range(1, k_eff + 1) for c in combinations(eligible, size))
    while chunk := list(islice(candidates, _ORACLE_CHUNK)):
        for candidate, phi in zip(chunk, phi_totals(g, chunk, phi_empty)):
            if phi < best_phi:  # minimizing phi maximizes F; strict keeps the first
                best_phi = phi
                best_members = candidate
    return frozenset(best_members), phi_empty - best_phi


@dataclass(frozen=True)
class PlacementResult:
    """One trial of an FR cell: who was picked and what it achieved."""

    seed: int | None
    filters: tuple[str, ...]
    f: int
    fr: Fraction
    wall_ms: float


@dataclass(frozen=True)
class FRRow:
    """One FR-curve cell: an (algorithm, k) pair, averaged over runs."""

    algorithm: str
    k: int
    fr: Fraction
    runs: int
    wall_ms: float
    results: tuple[PlacementResult, ...]


def _cell_seed(master: int, algorithm: str, k: int, trial: int) -> int:
    digest = hashlib.sha256(f"{master}:{algorithm}:{k}:{trial}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _run_cell(
    g: CGraph, name: str, k: int, runs: int, master_seed: int, phi_empty: int, fv: int
) -> FRRow:
    if name in RANDOMIZED_ALGORITHMS:
        seeds = [_cell_seed(master_seed, name, k, trial) for trial in range(runs)]
    else:
        seeds = [None]
    t0 = time.perf_counter()
    pick = _RUNNERS[name](g, k)
    setup_ms = (time.perf_counter() - t0) * 1000.0 / len(seeds)
    picks, wall = [], []
    for seed in seeds:
        t0 = time.perf_counter()
        picks.append(pick(seed))
        wall.append((time.perf_counter() - t0) * 1000.0 + setup_ms)
    results = []
    for seed, fs, ms, phi in zip(seeds, picks, wall, phi_totals(g, picks, phi_empty)):
        f = phi_empty - phi
        results.append(
            PlacementResult(seed, tuple(g.sorted_labels(fs)), f, ratio(f, fv), ms)
        )
    mean_f = Fraction(sum(r.f for r in results), len(results))
    wall = statistics.fmean(r.wall_ms for r in results)
    return FRRow(name, k, ratio(mean_f, fv), len(results), wall, tuple(results))


def fr_curve(
    g: CGraph,
    algorithms: list[str],
    k_max: int,
    runs: int = 25,
    seed: int = 0,
) -> tuple[FRRow, ...]:
    """FR per (algorithm, k) for k = 1..k_max, one row per cell.

    Randomized algorithms are averaged over ``runs`` seeded trials (the F
    values are averaged first, then divided by F(V)); deterministic ones
    run one trial with seed None.  A trial's ``wall_ms`` is the time of its
    pick plus the cell's setup time divided by its number of trials, so a
    cell's ``wall_ms``, the mean over its trials, is what one trial costs
    with the setup shared.  Scoring is not timed.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    for i, name in enumerate(algorithms):
        if name not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {name!r}")
        if name in algorithms[:i]:
            raise ValueError(f"repeated algorithm {name!r}")
    phi_empty, fv = scoring_constants(g)
    return tuple(
        _run_cell(g, name, k, runs, seed, phi_empty, fv)
        for name in algorithms
        for k in range(1, k_max + 1)
    )


def format_fraction(x: Fraction, digits: int = 6) -> str:
    """Exact decimal rendering of a ratio with fixed fractional digits."""
    scaled = x * 10**digits
    q = scaled.numerator // scaled.denominator
    rem = scaled.numerator % scaled.denominator
    if 2 * rem >= scaled.denominator:
        q += 1
    sign = "-" if q < 0 else ""
    q = abs(q)
    whole, frac = divmod(q, 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}"


def curve_to_csv(curve: tuple[FRRow, ...]) -> str:
    lines = ["algorithm,k,fr,runs,wall_ms"]
    for row in curve:
        lines.append(
            f"{row.algorithm},{row.k},{format_fraction(row.fr)},"
            f"{row.runs},{row.wall_ms:.3f}"
        )
    return "\n".join(lines) + "\n"


def curve_to_json_obj(curve: tuple[FRRow, ...]) -> list[dict]:
    """Full per-cell results in JSON-ready form."""
    out = []
    for row in curve:
        out.append(
            {
                "algorithm": row.algorithm,
                "k": row.k,
                "fr": float(row.fr),
                "runs": row.runs,
                "wall_ms": round(row.wall_ms, 3),
                "results": [
                    {
                        "seed": r.seed,
                        "filters": list(r.filters),
                        "f": r.f,
                        "fr": float(r.fr),
                        "wall_ms": round(r.wall_ms, 3),
                    }
                    for r in row.results
                ],
            }
        )
    return out
