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
filter) forwards r - ((r - nz) & M); no lane borrows, as nz <= r in each.

Memory.  A pass stores no int for a sink, which no node reads, and keeps
only each member's lane offsets, building its mask M when it reaches the
node.  A pass at least ``_WIDE`` bits wide also drops each node's
forwarded int once its last head has read it.  So at any point it holds
lane ints only for the tails not yet fully read (at most the order's
width), plus one mask: width · lanes · W bits, not n · lanes · W, and W
grows with the graph's depth.  Which tails are done at each position of
the order is one list per graph (``_last_reads``), built on the first
wide pass.  A narrower pass keeps its ints to its end: there, building
that list costs about as much as the pass.
"""

from collections.abc import Iterator
from functools import reduce
from itertools import islice, repeat
from operator import or_

from .graph import CGraph, single_source, topological_order
from .path_stats import baseline, check_members, per_graph


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


# filter sets per packed pass, which caps a lane int at 256 lanes; a wide
# pass then holds one per tail not yet fully read, plus one mask
_PASS_SETS = 256
_WIDE = 2048  # lane-int bits from which a pass drops each tail's int after its last read


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


def _last_reads(g: CGraph) -> list[list[int]]:
    """For each position in the topological order, the tails read there for
    the last time: a tail's int can go once the pass is past that position."""
    order = topological_order(g)
    last = [0] * g.n
    for i, v in enumerate(order):
        for u in g.in_adj[v]:
            last[u] = i  # the order only moves forward, so the last write wins
    freed: list[list[int]] = [[] for _ in order]
    for u, heads in enumerate(g.out_adj):
        if heads:
            freed[last[u]].append(u)
    return freed


def _packed_pass(g: CGraph, sets: list, w: int) -> list[int]:
    """φ of every set in ``sets``, from one packed pass with lanes of ``w`` bits.

    What it keeps, and for how long, is in the module docstring.
    """
    lane = (1 << w) - 1
    ones = ((1 << (w * len(sets))) - 1) // lane  # the low bit of every lane
    high = ones << (w - 1)
    up = high - ones  # sets the guard bit of every nonzero lane
    shifts: dict[int, list[int]] = {}  # member -> the offsets of its lanes
    for i, members in enumerate(sets):
        for v in members:
            shifts.setdefault(v, []).append(w * i)
    check_members(g, shifts)  # every member, once per batch
    freed = repeat(()) if w * len(sets) < _WIDE else per_graph(g, "last_reads", _last_reads)
    forwarded = [0] * g.n
    total = 0
    for v, done in zip(topological_order(g), freed):
        r = sum(map(forwarded.__getitem__, g.in_adj[v]))
        for u in done:
            forwarded[u] = 0
        if v in g.sources:
            r = ones
        else:
            total += r
            s = shifts.get(v)
            if s is not None:
                m = reduce(or_, map(lane.__lshift__, s))  # a set may list v twice
                nz = ((r + up) & high) >> (w - 1)  # 1 in every nonzero lane
                r -= (r - nz) & m  # min(r, 1) in v's lanes
        if g.out_adj[v]:
            forwarded[v] = r
    return [(total >> (w * i)) & lane for i in range(len(sets))]


def objective_f(g: CGraph, filters) -> int:
    """Redundancy eliminated by ``filters``: receipts without them minus with."""
    return next(gains(g, [filters]))
