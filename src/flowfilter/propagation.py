"""Exact deterministic propagation: per-node receive/forward counts.

This simulator is the ground truth the placement machinery is validated
against.  Counts are plain Python ints, so they stay exact no matter how
many paths the graph has.

``phi_totals`` scores many filter sets in one topological pass by packing
them into one Python int (SWAR, "SIMD within a register", Fisher & Dietz
1998).  Set i owns lane i: bits [i*W, (i+1)*W) with W = bit_length(φ(∅)) + 2.
Each in-edge then costs one big-int addition for every set at once.  No
lane can carry into the next: a filter forwards min(x, 1) <= x, so every
lane's count stays at or below its no-filter count, and every lane's
running φ total stays at or below φ(∅) < 2^(W-2).  The top bit of each lane
is the guard the min(x, 1) step tests against.
"""

from dataclasses import dataclass

from .graph import CGraph, GraphError, topological_order


@dataclass(frozen=True)
class CountTable:
    """Receive/forward counts from one propagation run, indexed by node."""

    received: tuple[int, ...]
    forwarded: tuple[int, ...]


def filter_members(filters) -> frozenset[int]:
    """A filter set from any iterable of node indices."""
    return frozenset(filters)


def _single_source(g: CGraph) -> int:
    if len(g.sources) != 1:
        raise GraphError(
            f"propagation needs exactly one source, got {len(g.sources)}; "
            "apply add_super_source first"
        )
    return next(iter(g.sources))


def simulate(g: CGraph, filters) -> CountTable:
    """Propagate one item from the source through an acyclic graph.

    Every node forwards each copy it receives to all out-neighbours; a
    filter forwards at most one copy total.  The source always emits
    exactly one copy per out-edge, so a filter placed on it is inert.
    Raises CycleError on cyclic input (the counts would diverge).
    """
    source = _single_source(g)
    members = filter_members(filters)
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
    return CountTable(tuple(received), tuple(forwarded))


def phi_total(g: CGraph, filters) -> int:
    """Total number of copies received across all non-source nodes."""
    source = _single_source(g)
    counts = simulate(g, filters)
    return sum(c for v, c in enumerate(counts.received) if v != source)


def phi_totals(g: CGraph, filter_sets, phi_empty: int) -> list[int]:
    """``phi_total`` of every filter set, from one packed topological pass.

    ``phi_empty`` must be ``phi_total(g, ())``: it sizes the lanes (see the
    module docstring).  A filter node v keeps each lane where it is not a
    filter and applies min(x, 1) where it is, through its lane mask M_v:
    nz = ((r + HIGH - ONES) & HIGH) >> (W - 1) is 1 in every lane of r that
    is nonzero, and v forwards (r & ~M_v) | (nz & M_v).  The source forwards
    one copy in every lane and ignores its mask.
    """
    source = _single_source(g)
    sets = [filter_members(s) for s in filter_sets]
    if not sets:
        return []
    w = phi_empty.bit_length() + 2
    lane = (1 << w) - 1
    ones = ((1 << (w * len(sets))) - 1) // lane  # the low bit of every lane
    high = ones << (w - 1)
    masks: dict[int, int] = {}
    for i, members in enumerate(sets):
        for v in members:
            masks[v] = masks.get(v, 0) | lane << (w * i)
    forwarded = [0] * g.n
    total = 0
    for v in topological_order(g):
        r = sum(forwarded[p] for p in g.in_adj[v])
        if v == source:
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
    return phi_total(g, ()) - phi_total(g, filters)
