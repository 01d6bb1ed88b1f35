"""Maximal connected acyclic subgraph extraction from a directed graph.

The extractor DFS-walks the graph from a root, children in ascending index
order so the walk is deterministic, and drops the back edges: the edges
(v, w) whose head w is still on the DFS stack when the edge is examined,
that is, w is a DFS ancestor of v.  A digraph is acyclic exactly when its
DFS finds no back edge (Tarjan 1972), so every other edge out of a reached
node is kept.

A dropped edge (v, w) closes a cycle with the tree path w -> v, which is
kept, so re-adding any dropped edge makes the result cyclic: it is maximal.

``best_dag`` ranks roots by what their DFS alone gives: the nodes reached,
then the edges out of them that are not back edges, then the smallest
index.  It builds a graph only for the winner, and it ranks only the roots
in source SCCs: strongly connected components with no edge in from another
component.  Any other root r has an edge into its component from outside,
so walking such edges backwards through the (acyclic) condensation ends in
a source SCC whose members s reach r.  r cannot reach s, or s would be in
r's component, so r reaches a strict subset of what s reaches and ranks
below it.  The source SCCs are found in one linear pass (Tarjan 1972).
"""

from .graph import CGraph, GraphError, topological_order


class RootNotFoundError(GraphError):
    """The requested extraction root is not a node of the graph."""


def dfs_annotate(g: CGraph, root: int) -> tuple[list[int], list[tuple[int, int]]]:
    """Nodes a DFS from ``root`` reaches, in discovery order, and its back edges.

    RootNotFoundError if ``root`` is not a node.
    """
    if not (0 <= root < g.n):
        raise RootNotFoundError(f"root index {root} is not a node")
    return _dfs([sorted(a) for a in g.out_adj], root)


def _dfs(
    children: list[list[int]], root: int
) -> tuple[list[int], list[tuple[int, int]]]:
    """``dfs_annotate`` over adjacency lists sorted once by the caller."""
    state = [0] * len(children)  # 0 unreached, 1 on the stack, 2 finished
    state[root] = 1
    order, back = [root], []

    # iterative DFS; stack holds (node, iterator over its sorted children)
    stack = [(root, iter(children[root]))]
    while stack:
        v, it = stack[-1]
        for w in it:
            if not state[w]:
                state[w] = 1
                order.append(w)
                stack.append((w, iter(children[w])))
                break
            if state[w] == 1:  # w is an ancestor of v
                back.append((v, w))
        else:  # every child seen: v's subtree is finished
            state[v] = 2
            stack.pop()
    return order, back


def extract_dag(g: CGraph, root: int) -> CGraph:
    """Maximal acyclic subgraph of ``g`` spanning the nodes reachable from root.

    The result keeps the reached nodes in index order and every edge out of
    them except the back edges, each node's heads in ``g.out_adj`` order; it
    is connected from the root and verified acyclic before being returned.
    """
    order, back = dfs_annotate(g, root)
    keep = sorted(order)
    remap = {v: i for i, v in enumerate(keep)}
    dropped = set(back)
    # every head of a reached node is reached: the ids are in range
    ids = [x for u in keep for v in g.out_adj[u] if (u, v) not in dropped
           for x in (remap[u], remap[v])]
    out = CGraph._from_ids([g.labels[v] for v in keep], ids, [remap[root]])
    topological_order(out)  # independent acyclicity assertion
    return out


def _source_scc_members(out_adj: tuple[tuple[int, ...], ...]) -> list[int]:
    """The nodes of source SCCs, ascending: one iterative Tarjan (1972) pass."""
    n = len(out_adj)
    index, low, comp = [-1] * n, [0] * n, [-1] * n  # comp -1: unassigned
    stack, clock, ncomp = [], 0, 0
    for start in range(n):
        if index[start] >= 0:
            continue
        index[start] = low[start] = clock
        clock += 1
        stack.append(start)
        work = [(start, iter(out_adj[start]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] < 0:
                    index[w] = low[w] = clock
                    clock += 1
                    stack.append(w)
                    work.append((w, iter(out_adj[w])))
                    break
                if comp[w] < 0 and index[w] < low[v]:  # w is on the stack
                    low[v] = index[w]
            else:  # every edge out of v seen
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:  # v roots a component: pop it
                    while comp[v] < 0:
                        comp[stack.pop()] = ncomp
                    ncomp += 1
    fed = [False] * ncomp  # fed[c]: an edge enters component c from another
    for u, heads in enumerate(out_adj):
        for w in heads:
            if comp[w] != comp[u]:
                fed[comp[w]] = True
    return [v for v in range(n) if not fed[comp[v]]]


def best_dag(g: CGraph) -> CGraph:
    """The largest ``extract_dag`` over every root.

    Roots are ranked by (-reached nodes, -kept edges, root), read off one
    DFS per root, and only the winner's DAG is built: ties break toward
    more edges, then the smallest root index.  Only roots in source SCCs
    are ranked, in ascending index order: every other root reaches a strict
    subset of what some source-SCC root reaches (see the module docstring),
    so it cannot win, and the winner and its tie-break are those of ranking
    every root.  The child lists are sorted once for all roots.
    """
    children = [sorted(a) for a in g.out_adj]

    def rank(root: int) -> tuple[int, int, int]:
        order, back = _dfs(children, root)
        return (-len(order), len(back) - sum(len(children[v]) for v in order), root)

    return extract_dag(g, min(_source_scc_members(g.out_adj), key=rank))
