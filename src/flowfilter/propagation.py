"""Exact deterministic propagation: the objective and the reference simulator.

φ(A) is the number of copies all nodes receive when the nodes of A are
filters.  ``simulate`` returns the per-node receive and forward counts as
two lists: the ground-truth reference the oracle tests compare against
(no library code calls it).  Counts are plain Python ints, exact however
many paths the graph has.

``gains`` is the library's one scoring function: it yields the objective
F(A) = φ(∅) − φ(A) of each filter set A, scoring up to ``_PASS_SETS`` sets
in one topological pass by packing them into one Python int (SWAR, "SIMD
within a register", Fisher & Dietz 1998).  φ(∅) comes from
``path_stats.baseline``, which reads it off the graph's no-filter prefix,
computed once per graph.  Set i owns lane i: bits [i*W, (i+1)*W) with
W = bit_length(φ(∅)) + 2.  Each in-edge then costs one big-int addition
for every set at once.  No lane can carry into the next:
a filter forwards min(x, 1) <= x, so every lane's count stays at or below
its no-filter count, and every lane's running φ total stays at or below
φ(∅) < 2^(W-2).  The top bit of each lane is the guard the min(x, 1) step
tests against: nz = ((r + HIGH - ONES) & HIGH) >> (W - 1) is 1 in every
nonzero lane of r, and a node with lane mask M (its lanes where it is a
filter) forwards (r & ~M) | (nz & M).
"""

from collections.abc import Iterator
from itertools import islice

from .graph import CGraph, single_source, topological_order
from .path_stats import baseline, check_members


def filter_members(filters) -> frozenset[int]:
    """A filter set from any iterable of node indices."""
    return frozenset(filters)


def simulate(g: CGraph, filters) -> tuple[list[int], list[int]]:
    """``(received, forwarded)``: the copies each node receives and forwards.

    One item leaves the source of an acyclic graph; every node forwards
    each copy it receives to all out-neighbours, a filter at most one copy
    total, and the source one copy per out-edge (a filter on it is inert).
    Raises as ``single_source`` does, or ValueError on a non-node member.
    """
    source = single_source(g)
    members = filter_members(filters)
    check_members(g, members)
    received = [0] * g.n
    forwarded = [0] * g.n
    for v in topological_order(g):
        received[v] = sum(forwarded[p] for p in g.in_adj[v])
        if v == source:
            forwarded[v] = 1
        elif v in members:
            forwarded[v] = min(received[v], 1)
        else:
            forwarded[v] = received[v]
    return received, forwarded


_PASS_SETS = 256  # filter sets per packed pass, which bounds its memory


def gains(g: CGraph, filter_sets) -> Iterator[int]:
    """Yield F(A) = φ(∅) − φ(A) for each filter set A, in order.

    The graph is checked (``single_source``) and φ(∅) read when ``gains``
    is called, so a bad graph raises before any set is read.
    The sets are then read lazily, ``_PASS_SETS`` at a time, each batch
    when its first score is asked for.
    """
    phi_empty, _ = baseline(g)
    w = phi_empty.bit_length() + 2  # the lane width
    filter_sets = iter(filter_sets)
    batches = iter(lambda: list(islice(filter_sets, _PASS_SETS)), [])  # [] ends it
    return (phi_empty - phi for batch in batches for phi in _packed_pass(g, batch, w))


def _packed_pass(g: CGraph, sets: list, w: int) -> list[int]:
    """φ of every set in ``sets``, from one packed pass with lanes of ``w`` bits."""
    lane = (1 << w) - 1
    ones = ((1 << (w * len(sets))) - 1) // lane  # the low bit of every lane
    high = ones << (w - 1)
    masks: dict[int, int] = {}
    for i, members in enumerate(sets):
        for v in members:
            masks[v] = masks.get(v, 0) | lane << (w * i)
    check_members(g, masks)  # every member, once per batch
    forwarded = [0] * g.n
    total = 0
    for v in topological_order(g):
        r = sum(map(forwarded.__getitem__, g.in_adj[v]))
        if v in g.sources:
            forwarded[v] = ones
            continue
        total += r
        m = masks.get(v)
        if m is None:
            forwarded[v] = r
        else:
            nz = ((r + high - ones) & high) >> (w - 1)
            forwarded[v] = (r & ~m) | (nz & m)
    return [(total >> (w * i)) & lane for i in range(len(sets))]


def objective_f(g: CGraph, filters) -> int:
    """Redundancy eliminated by ``filters``: receipts without them minus with."""
    return next(gains(g, [filters]))
