"""Every pass over a filter set: prefix, suffix and the packed scoring pass.

prefix(v)    -- copies of the item reaching v (= source->v paths, with every
                filter collapsed to a single forwarded copy).
suffix(v)    -- receipt events caused downstream per copy v forwards: the
                nonempty paths from v that enter no source and pass no
                filter before their last node.
impact(v)    -- redundancy eliminated by turning v into a filter, i.e.
                (prefix(v) - 1) * suffix(v).

Two O(edges) passes over one topological order, prefix forward and suffix
backward.  Each pass decides once per node what that node passes on, so
every edge costs one list read.  Every per-graph list -- the no-filter
prefix and suffix, and the packed pass's release list -- is computed once
per graph, on first use, and kept on the graph (``CGraph._no_filter``,
through ``per_graph``); every public function hands out a fresh copy.
``baseline`` reads φ(∅) and F(V), the two constants every score is
measured against, off the no-filter prefix, so neither costs a pass of its
own.  The master property (enforced by the test suite) is that impact
equals the exact objective difference measured by the reference
simulator, ``propagation.simulate``.

``gains`` is the library's one scoring function: it yields the objective
F(A) = φ(∅) − φ(A) of each filter set A, scoring up to ``_PASS_SETS`` sets
in one topological pass by packing them into one Python int (SWAR, "SIMD
within a register", Fisher & Dietz 1998).  φ(∅) comes from
``baseline``.  Set i owns lane i: bits [i*W, (i+1)*W) with
W = bit_length(φ(∅)) + 2.  Each in-edge then costs one big-int addition
for every set at once.  No lane can carry into the next: a filter forwards min(x, 1) <= x, so every lane's count stays at or below
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


def check_members(g: CGraph, members) -> None:
    """Raise ValueError on the first member that is no node index, not ignore it."""
    nodes = range(g.n)
    for v in members:
        if v not in nodes:
            raise ValueError(f"filter member {v!r} is not a node index (0 to {g.n - 1})")


def _prefix(g: CGraph, members: frozenset) -> list[int]:
    """The forward pass: copies received per node, 1 at every source."""
    prefix = [0] * g.n
    sent = [0] * g.n  # copies forwarded: 1 at a source, min(prefix, 1) at a filter
    for v in topological_order(g):
        if v in g.sources:
            prefix[v] = sent[v] = 1
            continue
        p = prefix[v] = sum(map(sent.__getitem__, g.in_adj[v]))
        sent[v] = min(p, 1) if v in members else p
    return prefix


def _suffix(g: CGraph, members: frozenset) -> list[int]:
    """The backward pass: receipts caused downstream per copy forwarded."""
    suffix = [0] * g.n
    caused = [0] * g.n  # receipts one arriving copy causes, itself included
    for v in reversed(topological_order(g)):
        s = suffix[v] = sum(map(caused.__getitem__, g.out_adj[v]))
        caused[v] = 0 if v in g.sources else 1 if v in members else s + 1
    return suffix


def per_graph(g: CGraph, name: str, run, *args) -> list:
    """``run(g, *args)``, run at most once per graph and kept under ``name``.

    The list returned is the graph's own: copy it before handing it out.
    """
    lists = g._no_filter
    if name not in lists:
        lists[name] = run(g, *args)
    return lists[name]


def compute_prefix(g: CGraph, filters) -> list[int]:
    """Copies received per node under ``filters``; 1 at every source."""
    members = frozenset(filters)
    if not members:
        return per_graph(g, "prefix", _prefix, frozenset()).copy()
    check_members(g, members)
    return _prefix(g, members)


def compute_stats(g: CGraph, filters) -> tuple[list[int], list[int]]:
    """``(prefix, suffix)`` for ``g`` under ``filters``: two lists indexed by node.

    suffix(v) is the sum over v's children w of what one copy arriving at w
    causes: 0 if w is a source, which counts no receipt and emits one copy
    whatever it receives; 1 if w is a filter, whose own receipt counts but
    whose output does not depend on how many copies arrived; 1 + suffix(w)
    otherwise.
    """
    members = frozenset(filters)
    if not members:
        return compute_prefix(g, members), per_graph(g, "suffix", _suffix, frozenset()).copy()
    return compute_prefix(g, members), _suffix(g, members)


def impact_table(g: CGraph, filters) -> list[int]:
    """Impact per node under ``filters``: 0 at sources, filters and unreached nodes."""
    members = frozenset(filters)
    prefix, suffix = compute_stats(g, members)
    return [
        (p - 1) * s if p > 1 and v not in g.sources and v not in members else 0
        for v, (p, s) in enumerate(zip(prefix, suffix))
    ]


def baseline(g: CGraph) -> tuple[int, int]:
    """``(φ(∅), F(V))``: the receipts with no filters, and the objective with
    every non-source node a filter, which is all removable redundancy.

    Both come from the no-filter prefix.  Every node but the source receives
    its prefix, so φ(∅) = Σ prefix − 1.  With V filtering, each reached node
    (prefix >= 1) forwards exactly one copy per out-edge and an unreached one
    forwards none; in an acyclic graph no edge leads from a reached node back
    into the source, so φ(V) is the number of out-edges of reached nodes.
    Counts are exact ints.  Raises as ``single_source`` does.
    """
    single_source(g)
    prefix = per_graph(g, "prefix", _prefix, frozenset())
    phi_empty = sum(prefix) - 1  # the source's prefix is 1
    return phi_empty, phi_empty - sum(len(out) for p, out in zip(prefix, g.out_adj) if p)


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
