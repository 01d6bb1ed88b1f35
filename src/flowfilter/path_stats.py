"""Per-node lists under a filter set: prefix, suffix and impact.

prefix(v)    -- copies of the item reaching v (= source->v paths, with every
                filter collapsed to a single forwarded copy).
suffix(v)    -- receipt events caused downstream per copy v forwards: the
                nonempty paths from v that enter no source and pass no
                filter before their last node.
impact(v)    -- redundancy eliminated by turning v into a filter, i.e.
                (prefix(v) - 1) * suffix(v).

Two O(edges) passes over one topological order, prefix forward and suffix
backward.  Each pass decides once per node what that node passes on, so
every edge costs one list read.  The no-filter lists are computed once per
graph, each on first use, and kept on the graph (``CGraph._no_filter``);
every public function hands out a fresh copy.  ``baseline`` reads φ(∅) and
F(V), the two constants every score is measured against, off the no-filter
prefix, so neither costs a pass of its own.  The master property (enforced
by the test suite) is that impact equals the exact objective difference
measured by the reference simulator, ``propagation.simulate``.
"""

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
