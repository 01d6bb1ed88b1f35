"""Evaluation harness: filter ratio, brute-force oracle, and FR curves.

F(A) = φ(∅) − φ(A) scores a filter set A, and FR(A) = F(A) / F(V), an exact
fraction that is 1 when F(V) = 0, is the share of removable redundancy it
removes.  Callers take φ(∅), F(V) from ``scoring_constants`` once per call.

A filter set is a frozenset of node indices.  Its provenance is kept only
where it is reported: the algorithm and k on each ``FRRow``, the seed on
each of the row's ``PlacementResult`` trials, and the CLI's own JSON.

``fr_curve`` sets each algorithm up once for k_max (a greedy's ordered
picks, the tree DP's tables, rand-w's weights), picks every (k, trial), and
scores the algorithm's filter sets in packed passes
(``propagation.phi_totals``) of at most 256 sets each.  It returns one
``FRRow`` per (algorithm, k).
"""

import hashlib
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from math import comb, floor

from .graph import CGraph
from .placement import (
    as_ctree,
    check_k,
    eligible_nodes,
    greedy_1_order,
    greedy_all_order,
    greedy_l_order,
    greedy_max_order,
    optimal_unbounded,
    random_picker,
    tree_dp_tables,
)
from .propagation import phi_total, phi_totals


class BudgetExceededError(Exception):
    """Exhaustive search would evaluate more subsets than the budget allows."""


RANDOMIZED_ALGORITHMS = ("rand-k", "rand-i", "rand-w")


def _first(picks: list[int]):
    # a greedy's picks at k are the first k of its ordered picks for k_max
    return lambda k, seed: frozenset(picks[:k])


def _seedless(pick):
    return lambda k, seed: pick(k)


# name -> prepare(g, k_max), which does the per-graph setup once and returns
# pick(k, seed) for every k <= k_max; the order is the CLI's `choices` order
_RUNNERS = {
    "greedy-1": lambda g, k: _first(greedy_1_order(g, k)),
    "greedy-all": lambda g, k: _first(greedy_all_order(g, k)),
    "greedy-max": lambda g, k: _first(greedy_max_order(g, k)),
    "greedy-l": lambda g, k: _first(greedy_l_order(g, k)),
    "tree-dp": lambda g, k: _seedless(tree_dp_tables(as_ctree(g), k)),
    "optimal-unbounded": lambda g, k: _seedless(lambda k, filters=optimal_unbounded(g): filters),
    "rand-k": lambda g, k: random_picker(g, "rand_k"),
    "rand-i": lambda g, k: random_picker(g, "rand_i"),
    "rand-w": lambda g, k: random_picker(g, "rand_w"),
}
ALGORITHMS = tuple(_RUNNERS)


def run_algorithm(g: CGraph, name: str, k: int, seed: int | None = 0) -> frozenset[int]:
    """Run one placement algorithm by CLI name."""
    prepare = _RUNNERS.get(name)
    if prepare is None:
        raise ValueError(f"unknown algorithm {name!r}")
    check_k(k)
    return prepare(g, k)(k, seed)


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


_PASS_SETS = 256  # filter sets per packed pass, which bounds its memory


def _packed_phis(g: CGraph, filter_sets, phi_empty: int):
    """Yield (filter set, φ of it) for each set, in passes of at most ``_PASS_SETS``."""
    filter_sets = iter(filter_sets)
    while chunk := list(islice(filter_sets, _PASS_SETS)):
        yield from zip(chunk, phi_totals(g, chunk, phi_empty))


def oracle(
    g: CGraph, k: int, budget: int = 10**6, *, phi_empty: int | None = None
) -> tuple[frozenset[int], int]:
    """Exhaustively maximize the objective over all filter sets of size <= k.

    Among maximizers, the smallest set wins, then the lexicographically
    smallest index tuple.  Raises BudgetExceededError before starting if
    the subset count is out of reach.  A caller that already has φ(∅),
    ``phi_total(g, ())``, passes it as ``phi_empty`` to save a pass.
    """
    check_k(k)
    eligible = eligible_nodes(g)
    k_eff = min(k, len(eligible))
    total = sum(comb(len(eligible), j) for j in range(k_eff + 1))
    if total > budget:
        raise BudgetExceededError(
            f"{total} candidate subsets exceed the budget of {budget}"
        )
    best_members: tuple[int, ...] = ()
    if phi_empty is None:
        phi_empty = phi_total(g, ())
    best_phi = phi_empty
    candidates = (c for size in range(1, k_eff + 1) for c in combinations(eligible, size))
    for candidate, phi in _packed_phis(g, candidates, phi_empty):
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


def fr_curve(
    g: CGraph, algorithms: list[str], k_max: int, runs: int = 25, seed: int = 0
) -> tuple[FRRow, ...]:
    """FR per (algorithm, k) for k = 1..k_max, one row per cell.

    Randomized algorithms are averaged over ``runs`` seeded trials per k (the
    F values are averaged first, then divided by F(V)); deterministic ones
    run one trial with seed None.  A trial's ``wall_ms`` is the time of its
    pick plus its algorithm's one-off setup time divided by the algorithm's
    number of trials on the curve; a row's ``wall_ms`` is the mean over its
    trials.  Scoring, in packed passes of at most 256 filter sets, is not
    timed.
    """
    if k_max < 1 or runs < 1:
        raise ValueError(f"k_max and runs must be >= 1, got {k_max} and {runs}")
    for i, name in enumerate(algorithms):
        if name not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {name!r}")
        if name in algorithms[:i]:
            raise ValueError(f"repeated algorithm {name!r}")
    phi_empty, fv = scoring_constants(g)
    rows = []
    for name in algorithms:
        randomized = name in RANDOMIZED_ALGORITHMS
        trials = runs if randomized else 1
        args = [(k, _cell_seed(seed, name, k, t) if randomized else None)
                for k in range(1, k_max + 1) for t in range(trials)]
        t0 = time.perf_counter()
        pick = _RUNNERS[name](g, k_max)
        setup_ms = (time.perf_counter() - t0) * 1000.0 / len(args)
        picks, wall = [], []
        for k, s in args:
            t0 = time.perf_counter()
            picks.append(pick(k, s))
            wall.append((time.perf_counter() - t0) * 1000.0 + setup_ms)
        gains = [phi_empty - phi for _, phi in _packed_phis(g, picks, phi_empty)]
        results = [
            PlacementResult(s, tuple(g.sorted_labels(fs)), f, ratio(f, fv), ms)
            for (_, s), fs, f, ms in zip(args, picks, gains, wall)
        ]
        for i in range(0, len(args), trials):  # one row per k
            cell = tuple(results[i : i + trials])
            mean_f = Fraction(sum(r.f for r in cell), trials)
            wall_ms = statistics.fmean(r.wall_ms for r in cell)
            rows.append(FRRow(name, args[i][0], ratio(mean_f, fv), trials, wall_ms, cell))
    return tuple(rows)


_FR_DIGITS = 6


def format_fraction(x: Fraction) -> str:
    """Exact decimal rendering of a ratio with ``_FR_DIGITS`` digits, halves up."""
    q = floor(x * 10**_FR_DIGITS + Fraction(1, 2))
    whole, frac = divmod(abs(q), 10**_FR_DIGITS)
    return f"{'-' if q < 0 else ''}{whole}.{frac:0{_FR_DIGITS}d}"


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
