"""Evaluation harness: filter ratio, brute-force oracle, and FR curves.

F(A) = φ(∅) − φ(A) scores a filter set A, and FR(A) = F(A) / F(V), an exact
fraction that is 1 when F(V) = 0, is the share of removable redundancy it
removes.  Every F comes from ``propagation.gains``.  φ(∅) and F(V) are
``path_stats.baseline``: both are read off the no-filter prefix, which is
computed once per graph, so F(V) costs no pass and V is never scored.

A filter set is a frozenset of node indices.  Its provenance is kept only
where it is reported: the algorithm and k on each ``FRRow``, the seed on
each of the row's ``PlacementResult`` trials, and the CLI's own JSON.

``fr_curve`` sets each algorithm up once for k_max, in one call of its
selector (a greedy's ordered picks, ``tree_dp``'s tables,
``randomized_baseline``'s weights), and picks every (k, trial) from it.
Only once every pick is made does it score them all, in one ``gains``
stream of packed passes of at most 256 sets each.  It returns one
``FRRow`` per (algorithm, k), built from that cell's picks and scores.
"""

import hashlib
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, tee
from math import comb, floor
from operator import itemgetter

from .graph import CGraph
from .path_stats import baseline
from .placement import (
    check_k,
    eligible_nodes,
    greedy_1,
    greedy_all,
    greedy_l,
    greedy_max,
    optimal_unbounded,
    randomized_baseline,
    tree_dp,
)
from .propagation import gains


class BudgetExceededError(Exception):
    """Exhaustive search would evaluate more subsets than the budget allows."""


RANDOMIZED_ALGORITHMS = ("rand-k", "rand-i", "rand-w")


def _first(picks: tuple[int, ...]):
    # a greedy's picks at k are the first k of its ordered picks for k_max
    return lambda k, seed: frozenset(picks[:k])


def _seedless(pick):
    return lambda k, seed: pick(k)


# name -> prepare(g, k_max), which calls its selector once, by its public name,
# and returns pick(k, seed) for every k <= k_max; the order is the CLI's
# `choices` order
_RUNNERS = {
    "greedy-1": lambda g, k: _first(greedy_1(g, k)),
    "greedy-all": lambda g, k: _first(greedy_all(g, k)),
    "greedy-max": lambda g, k: _first(greedy_max(g, k)),
    "greedy-l": lambda g, k: _first(greedy_l(g, k)),
    "tree-dp": lambda g, k: _seedless(tree_dp(g, k)),
    "optimal-unbounded": lambda g, k: _seedless(lambda k, filters=optimal_unbounded(g): filters),
    "rand-k": lambda g, k: randomized_baseline(g, "rand_k"),
    "rand-i": lambda g, k: randomized_baseline(g, "rand_i"),
    "rand-w": lambda g, k: randomized_baseline(g, "rand_w"),
}
ALGORITHMS = tuple(_RUNNERS)


def run_algorithm(g: CGraph, name: str, k: int, seed: int | None = 0) -> frozenset[int]:
    """Run one placement algorithm by CLI name."""
    prepare = _RUNNERS.get(name)
    if prepare is None:
        raise ValueError(f"unknown algorithm {name!r}")
    check_k(k)
    return prepare(g, k)(k, seed)


def ratio(f, fv: int) -> Fraction:
    """F / F(V) as an exact fraction; 1 when the graph has no redundancy."""
    return Fraction(1) if fv == 0 else Fraction(f, fv)


def max_objective(g: CGraph) -> int:
    """F(V): the objective with filters everywhere, i.e. all removable redundancy.

    Read off the graph's no-filter prefix (``path_stats.baseline``), which
    is computed once per graph.  Raises as ``single_source`` does.
    """
    return baseline(g)[1]


def oracle(g: CGraph, k: int, budget: int = 10**6) -> tuple[frozenset[int], int]:
    """Exhaustively maximize the objective over all filter sets of size <= k.

    Among maximizers, the smallest set wins, then the lexicographically
    smallest index tuple.  Raises BudgetExceededError before starting if
    the subset count is out of reach.
    """
    check_k(k)
    eligible = eligible_nodes(g)
    k_eff = min(k, len(eligible))
    total = sum(comb(len(eligible), j) for j in range(k_eff + 1))
    if total > budget:
        raise BudgetExceededError(
            f"{total} candidate subsets exceed the budget of {budget}"
        )
    # the empty set (F = 0 by definition, so it is not scored), then by size
    # and lexicographically; max keeps the first maximizer, so ties go to
    # the earliest candidate
    sets, scored = tee(chain.from_iterable(combinations(eligible, j) for j in range(1, k_eff + 1)))
    best, f = max(chain([((), 0)], zip(sets, gains(g, scored))), key=itemgetter(1))
    return frozenset(best), f


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
    trials.

    Three plain steps: each algorithm is set up once and picks every
    (k, trial) into its cell, in row order; every pick is then scored in
    one ``gains`` stream, in packed passes of at most 256 filter sets,
    which are not timed; and each row is built from its cell.
    """
    if k_max < 1 or runs < 1:
        raise ValueError(f"k_max and runs must be >= 1, got {k_max} and {runs}")
    for i, name in enumerate(algorithms):
        if name not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {name!r}")
        if name in algorithms[:i]:
            raise ValueError(f"repeated algorithm {name!r}")
    trials = {name: runs if name in RANDOMIZED_ALGORITHMS else 1 for name in algorithms}
    fv = max_objective(g)  # checks the graph before any pick
    cells = []  # (algorithm, k, [(seed, filter set, wall_ms) per trial]), in row order
    for name, n in trials.items():
        t0 = time.perf_counter()
        pick = _RUNNERS[name](g, k_max)
        setup_ms = (time.perf_counter() - t0) * 1000.0 / (k_max * n)
        for k in range(1, k_max + 1):
            cell = []
            for t in range(n):
                s = _cell_seed(seed, name, k, t) if name in RANDOMIZED_ALGORITHMS else None
                t0 = time.perf_counter()
                fs = pick(k, s)
                cell.append((s, fs, (time.perf_counter() - t0) * 1000.0 + setup_ms))
            cells.append((name, k, cell))
    f_of = gains(g, [fs for _, _, cell in cells for _, fs, _ in cell])
    rows = []
    for name, k, cell in cells:
        results = tuple(
            PlacementResult(s, tuple(g.sorted_labels(fs)), f, ratio(f, fv), ms)
            for (s, fs, ms), f in zip(cell, f_of)
        )
        mean_f = Fraction(sum(r.f for r in results), len(results))
        wall_ms = statistics.fmean(r.wall_ms for r in results)
        rows.append(FRRow(name, k, ratio(mean_f, fv), len(results), wall_ms, results))
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


def _json_fields(record) -> dict:
    # a record's own fields, with the exact fr as a float and wall_ms to 3 places
    return vars(record) | {"fr": float(record.fr), "wall_ms": round(record.wall_ms, 3)}


def curve_to_json_obj(curve: tuple[FRRow, ...]) -> list[dict]:
    """Full per-cell results in JSON-ready form: each record's own fields."""
    return [
        _json_fields(row)
        | {"results": [_json_fields(r) | {"filters": list(r.filters)} for r in row.results]}
        for row in curve
    ]
