"""Exact deterministic propagation: the objective and the reference simulator.

φ(A) is the number of copies all nodes receive when the nodes of A are
filters.  ``simulate`` returns the per-node receive and forward counts as
two lists: the ground-truth reference the oracle tests compare against
(no library code calls it).  Counts are plain Python ints, exact however
many paths the graph has.  ``objective_f`` scores one filter set through
``path_stats.gains``, the library's one scoring function.
"""

from .graph import CGraph, single_source, topological_order
from .path_stats import check_members, gains


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


def objective_f(g: CGraph, filters) -> int:
    """Redundancy eliminated by ``filters``: receipts without them minus with."""
    return next(gains(g, [filters]))
