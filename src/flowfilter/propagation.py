"""Exact deterministic propagation: per-node receive/forward counts.

This simulator is the ground truth the placement machinery is validated
against.  Counts are plain Python ints, so they stay exact no matter how
many paths the graph has.
"""

from dataclasses import dataclass

from .graph import CGraph, GraphError, topological_order


@dataclass(frozen=True)
class CountTable:
    """Receive/forward counts from one propagation run, indexed by node."""

    received: tuple[int, ...]
    forwarded: tuple[int, ...]


def filter_members(filters) -> frozenset[int]:
    """Accept a FilterSet or any iterable of node indices."""
    members = getattr(filters, "members", None)
    if members is not None:
        return frozenset(members)
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


def objective_f(g: CGraph, filters) -> int:
    """Redundancy eliminated by ``filters``: receipts without them minus with."""
    return phi_total(g, ()) - phi_total(g, filters)
