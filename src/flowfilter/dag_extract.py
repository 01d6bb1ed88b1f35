"""Maximal connected acyclic subgraph extraction from a directed graph.

The extractor DFS-walks the graph from a root (children in ascending index
order, so discovery times are deterministic) and classifies every edge
(u, v) between visited nodes by the DFS entry/exit intervals (Tarjan
1972):

  * tree and forward edges: v inside u's subtree, so v's interval is
    nested in u's;
  * cross edges: v's subtree was finished before u was entered, so
    exit(v) < enter(u);
  * back edges: v is a DFS ancestor of u (or u itself), so u's interval is
    nested in v's.

It keeps every edge except the back edges.

Why the result is acyclic regardless of the order edges are considered:
a kept tree or forward edge has exit(v) < exit(u), and a kept cross edge
has exit(v) < enter(u) < exit(u).  Either way exit strictly decreases
along every kept edge, and no directed cycle can decrease forever.  The
test never consults previously-admitted edges, only the DFS intervals,
which is why admission order cannot matter.

Every omitted edge (u, v) is a back edge, and the tree path v -> u is in
the output, so re-adding the edge closes a cycle: the output is maximal.

``best_dag`` ranks every root by what its DFS alone gives: the nodes it
reaches, then the edges out of them that are not back edges, then the
smallest index.  It builds a graph only for the winner.
"""

from dataclasses import dataclass

from .graph import CGraph, GraphError, topological_order


class RootNotFoundError(GraphError):
    """The requested extraction root is not a node of the graph."""


@dataclass(frozen=True)
class DfsAnnotation:
    """Deterministic DFS bookkeeping for one root.

    enter[v] is the discovery time (-1 if unreached) and [enter, exit] the
    subtree interval; entries and exits share one clock.
    """

    enter: tuple[int, ...]
    exit: tuple[int, ...]


def dfs_annotate(g: CGraph, root: int) -> DfsAnnotation:
    """Entry/exit times of a DFS from ``root``; RootNotFoundError if no node."""
    if not (0 <= root < g.n):
        raise RootNotFoundError(f"root index {root} is not a node")
    return _dfs([sorted(a) for a in g.out_adj], root)


def _dfs(children: list[list[int]], root: int) -> DfsAnnotation:
    """``dfs_annotate`` over adjacency lists sorted once by the caller."""
    enter = [-1] * len(children)
    exit_ = [-1] * len(children)

    # iterative DFS; stack holds (node, iterator position over sorted children)
    enter[root] = 0
    clock = 1
    stack = [(root, iter(children[root]))]
    while stack:
        v, it = stack[-1]
        for w in it:
            if enter[w] == -1:
                enter[w] = clock
                clock += 1
                stack.append((w, iter(children[w])))
                break
        else:  # every child seen: v's subtree is finished
            exit_[v] = clock
            clock += 1
            stack.pop()

    return DfsAnnotation(tuple(enter), tuple(exit_))


def _kept_edges(g: CGraph, ann: DfsAnnotation) -> list[tuple[int, int]]:
    """Edges out of reached nodes, less the back edges (v an ancestor of u)."""
    enter, exit_ = ann.enter, ann.exit
    return [(u, v) for u, v in g.edges
            if enter[u] != -1 and not (enter[v] <= enter[u] and exit_[u] <= exit_[v])]


def extract_dag(g: CGraph, root: int) -> CGraph:
    """Maximal acyclic subgraph of ``g`` spanning the nodes reachable from root.

    The result keeps every DFS tree edge and every reachable edge that
    cannot close a cycle; it is connected from the root and verified
    acyclic before being returned.
    """
    ann = dfs_annotate(g, root)
    keep = [v for v in range(g.n) if ann.enter[v] != -1]  # reached by the DFS
    remap = {v: i for i, v in enumerate(keep)}
    edges = [(remap[u], remap[v]) for u, v in _kept_edges(g, ann)]
    out = CGraph([g.labels[v] for v in keep], edges, [remap[root]])
    topological_order(out)  # independent acyclicity assertion
    return out


def best_dag(g: CGraph) -> CGraph:
    """The largest ``extract_dag`` over every root.

    Roots are ranked by (-reached nodes, -kept edges, root), read off one
    DFS per root, and only the winner's DAG is built: ties break toward
    more edges, then the smallest root index.  The child lists are sorted
    once for all roots.
    """
    children = [sorted(a) for a in g.out_adj]

    def rank(root: int) -> tuple[int, int, int]:
        ann = _dfs(children, root)
        return (ann.enter.count(-1) - g.n, -len(_kept_edges(g, ann)), root)

    return extract_dag(g, min(range(g.n), key=rank))
