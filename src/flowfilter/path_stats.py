"""Path statistics under a filter set: prefix, suffix and impact.

prefix(v)    -- copies of the item reaching v (= source->v paths, with every
                filter collapsed to a single forwarded copy).
suffix(v)    -- receipt events caused downstream per copy v forwards: the
                nonempty paths from v that enter no source and pass no
                filter before their last node.
impact(v)    -- redundancy eliminated by turning v into a filter, i.e.
                (prefix(v) - 1) * suffix(v).

Two O(edges) passes over one topological order: prefix forward, suffix
backward.  The master property (enforced by the test suite) is that impact
equals the exact objective difference measured by the propagation
simulator.
"""

from dataclasses import dataclass

from .graph import CGraph, topological_order
from .propagation import filter_members


@dataclass(frozen=True)
class PathStats:
    prefix: tuple[int, ...]
    suffix: tuple[int, ...]
    filters: frozenset[int]


def _prefix_pass(g: CGraph, members: frozenset[int]) -> list[int]:
    # a filter forwards min(prefix, 1) copies; a source emits exactly one
    prefix = [0] * g.n
    for v in topological_order(g):
        if v in g.sources:
            prefix[v] = 1
        else:
            prefix[v] = sum(
                min(prefix[p], 1) if p in members else prefix[p]
                for p in g.in_adj[v]
            )
    return prefix


def compute_prefix(g: CGraph, filters) -> list[int]:
    """Just the prefix table: copies received per node under ``filters``."""
    return _prefix_pass(g, filter_members(filters))


def compute_stats(g: CGraph, filters) -> PathStats:
    """Prefix and suffix tables for ``g`` under ``filters``.

    suffix(v) = sum over children w that are not sources of
    1 + (0 if w is a filter else suffix(w)).  Receipts at a source are not
    counted and it emits one copy whatever it receives, so no path into a
    source counts toward an upstream node.  A filter's own receipt counts,
    but what it forwards does not depend on how many copies arrived.
    """
    members = filter_members(filters)
    prefix = _prefix_pass(g, members)
    suffix = [0] * g.n
    for v in reversed(topological_order(g)):
        suffix[v] = sum(
            1 if w in members else 1 + suffix[w]
            for w in g.out_adj[v]
            if w not in g.sources
        )
    return PathStats(tuple(prefix), tuple(suffix), members)


def impact_from_stats(g: CGraph, stats: PathStats, v: int) -> int:
    """Impact of v under precomputed stats; 0 for sources and filters."""
    if v in g.sources or v in stats.filters:
        return 0
    if stats.prefix[v] == 0:
        return 0  # unreachable: a filter there changes nothing
    return (stats.prefix[v] - 1) * stats.suffix[v]


def impact_table(g: CGraph, filters) -> dict[int, int]:
    """Impact of every node under ``filters`` (sources and filters map to 0)."""
    stats = compute_stats(g, filters)
    return {v: impact_from_stats(g, stats, v) for v in range(g.n)}
