"""Filter-selection algorithms.

Deterministic selectors (degree product, full impact with and without
recomputation, prefix-times-out-degree), the closed-form unbounded optimum,
an exact dynamic program for communication trees, and three seeded random
baselines.  All tie-breaks go to the smallest dense node index, so every
deterministic selector is reproducible bit for bit.
"""

import random
import sys
from dataclasses import dataclass

from .graph import CGraph, GraphError, topological_order
from .path_stats import compute_prefix, impact_table


class NotACTreeError(GraphError):
    """Graph is not a communication tree (source removal must leave a forest)."""


@dataclass(frozen=True)
class FilterSet:
    """A chosen set of filter nodes plus provenance."""

    members: frozenset[int]
    algorithm: str = "manual"
    k_requested: int = 0
    seed: int | None = None

    def labels(self, g: CGraph) -> list[str]:
        return sorted(g.labels[v] for v in self.members)


def eligible_nodes(g: CGraph) -> list[int]:
    """Nodes a deterministic selector may pick: everything but sources."""
    return [v for v in range(g.n) if v not in g.sources]


def _check_k(k: int) -> None:
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")


def _top_k(scored: list[tuple[int, int]], k: int) -> frozenset[int]:
    # scored: (node, score); highest score first, then smallest index
    ranked = sorted(scored, key=lambda t: (-t[1], t[0]))
    return frozenset(v for v, _ in ranked[:k])


def greedy_1(g: CGraph, k: int) -> FilterSet:
    """Rank nodes by in-degree times out-degree and keep the top k."""
    _check_k(k)
    scored = [(v, g.in_degree(v) * g.out_degree(v)) for v in eligible_nodes(g)]
    return FilterSet(_top_k(scored, k), "greedy-1", k)


def greedy_max(g: CGraph, k: int) -> FilterSet:
    """Top k nodes by impact computed once, with no recomputation."""
    _check_k(k)
    table = impact_table(g, ())
    scored = [(v, table[v]) for v in eligible_nodes(g)]
    return FilterSet(_top_k(scored, k), "greedy-max", k)


def greedy_all(g: CGraph, k: int) -> FilterSet:
    """k rounds of picking the highest-impact node, recomputing each round.

    Stops early once no remaining node has positive impact.
    """
    _check_k(k)
    members: set[int] = set()
    for _ in range(k):
        table = impact_table(g, members)
        best, best_gain = None, 0
        for v in range(g.n):
            if v in members:
                continue
            if table[v] > best_gain:
                best, best_gain = v, table[v]
        if best is None:
            break
        members.add(best)
    return FilterSet(frozenset(members), "greedy-all", k)


def greedy_l(g: CGraph, k: int) -> FilterSet:
    """k rounds of picking the best prefix times out-degree.

    Cheaper than full impact: only the prefix table is refreshed per round.
    The score says nothing about true gain, so there is no early stop; all
    k picks are made while eligible nodes remain.
    """
    _check_k(k)
    members: set[int] = set()
    for _ in range(k):
        prefix = compute_prefix(g, members)
        best, best_score = None, -1
        for v in range(g.n):
            if v in g.sources or v in members:
                continue
            score = prefix[v] * g.out_degree(v)
            if score > best_score:
                best, best_score = v, score
        if best is None:
            break
        members.add(best)
    return FilterSet(frozenset(members), "greedy-l", k)


def optimal_unbounded(g: CGraph) -> FilterSet:
    """Smallest filter set removing all removable redundancy.

    Exactly the non-source nodes with in-degree above one and at least one
    out-edge: every other node forwards at most one copy anyway.
    """
    members = frozenset(
        v
        for v in eligible_nodes(g)
        if g.in_degree(v) > 1 and g.out_degree(v) > 0
    )
    return FilterSet(members, "optimal-unbounded", len(members))


# --- random baselines -------------------------------------------------------


def rand_w_weights(g: CGraph) -> list[float]:
    """Per-node weight: sum over children u of 1/in_degree(u)."""
    return [
        sum(1.0 / g.in_degree(u) for u in g.out_adj[v]) for v in range(g.n)
    ]


def randomized_baseline(g: CGraph, k: int, variant: str, seed: int) -> FilterSet:
    """Seeded random selectors: rand_k, rand_i, or rand_w.

    rand_k draws exactly k distinct nodes uniformly; rand_i keeps each node
    independently with probability k/n; rand_w keeps node v with probability
    w(v) * k/n clamped to [0, 1], where w favours nodes feeding low-in-degree
    children.  All three draw over every node; a source picked as a filter
    is inert during propagation.
    """
    _check_k(k)
    rng = random.Random(seed)
    if variant == "rand_k":
        if k > g.n:
            raise ValueError(f"rand_k needs k <= n, got k={k}, n={g.n}")
        members = frozenset(rng.sample(range(g.n), k))
    elif variant == "rand_i":
        p = min(1.0, k / g.n)
        members = frozenset(v for v in range(g.n) if rng.random() < p)
    elif variant == "rand_w":
        weights = rand_w_weights(g)
        scale = k / g.n
        members = frozenset(
            v
            for v in range(g.n)
            if rng.random() < min(1.0, max(0.0, weights[v] * scale))
        )
    else:
        raise ValueError(f"unknown baseline variant {variant!r}")
    return FilterSet(members, variant.replace("_", "-"), k, seed)


# --- communication trees ----------------------------------------------------


@dataclass(frozen=True)
class CTree:
    """A certified communication tree.

    The graph minus its source is a forest of out-trees; roots of the
    forest are fed directly by the source, and any other node may carry an
    extra source edge on top of the one from its tree parent.
    """

    graph: CGraph
    source: int
    parent: tuple  # tree parent index or None, per node
    children: tuple  # tuple of child indices, per node
    roots: tuple
    has_source_edge: tuple  # bool per node


def as_ctree(g: CGraph) -> CTree:
    """Certify that ``g`` is a communication tree, or raise NotACTreeError."""
    if len(g.sources) != 1:
        raise NotACTreeError(f"expected exactly one source, got {len(g.sources)}")
    source = next(iter(g.sources))
    try:
        topological_order(g)
    except GraphError as exc:
        raise NotACTreeError(f"graph is cyclic: {exc}") from None

    parent: list = [None] * g.n
    roots = []
    for v in range(g.n):
        if v == source:
            continue
        tree_parents = [p for p in g.in_adj[v] if p != source]
        if len(tree_parents) > 1:
            raise NotACTreeError(
                f"node {g.labels[v]!r} has {len(tree_parents)} non-source parents"
            )
        if tree_parents:
            parent[v] = tree_parents[0]
        else:
            if source not in g.in_adj[v]:
                raise NotACTreeError(
                    f"node {g.labels[v]!r} is not reachable from the source"
                )
            roots.append(v)
    children: list[list[int]] = [[] for _ in range(g.n)]
    for v, p in enumerate(parent):
        if p is not None:
            children[p].append(v)
    has_source_edge = [source in g.in_adj[v] for v in range(g.n)]
    return CTree(
        g,
        source,
        tuple(parent),
        tuple(tuple(sorted(c)) for c in children),
        tuple(roots),
        tuple(has_source_edge),
    )


@dataclass
class _BinNode:
    """Node of the binarized tree; orig is None for dummy join nodes."""

    orig: int | None
    left: int | None = None  # indices into the _BinNode list
    right: int | None = None
    source_edge: bool = False


def _binarize(t: CTree) -> tuple[list[_BinNode], int]:
    """Binary version of the tree; returns (nodes, virtual root index).

    A node with more than two children keeps its first child on the left
    and pushes the rest under a chain of dummy nodes.  Dummies are virtual:
    they receive nothing and just relay their parent's outflow, and they
    are never eligible as filters.  The virtual root joins the forest roots
    the same way with zero inflow.
    """
    nodes: list[_BinNode] = []

    def new_node(orig: int | None, source_edge: bool) -> int:
        nodes.append(_BinNode(orig, source_edge=source_edge))
        return len(nodes) - 1

    def attach(idx: int, child_ids: list[int]) -> None:
        # Hang child_ids (already _BinNode indices) under nodes[idx].
        cur = idx
        remaining = list(child_ids)
        while remaining:
            if len(remaining) == 1:
                nodes[cur].left = remaining[0]
                remaining = []
            elif len(remaining) == 2:
                nodes[cur].left = remaining[0]
                nodes[cur].right = remaining[1]
                remaining = []
            else:
                nodes[cur].left = remaining[0]
                dummy = new_node(None, False)
                nodes[cur].right = dummy
                cur = dummy
                remaining = remaining[1:]

    def build(v: int) -> int:
        idx = new_node(v, t.has_source_edge[v])
        attach(idx, [build(c) for c in t.children[v]])
        return idx

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 2 * t.graph.n + 100))
    try:
        root = new_node(None, False)
        attach(root, [build(r) for r in t.roots])
    finally:
        sys.setrecursionlimit(old_limit)
    return nodes, root


def tree_dp(t: CTree, k: int) -> FilterSet:
    """Exact optimal filter set of size <= k on a communication tree.

    Dynamic program over the binarized tree with state (node, budget,
    inflow), where inflow is the copy count arriving from the tree parent.
    Inflow grows at most by one per level (each child sees its parent's
    outflow plus an optional direct source copy), so the state space stays
    small.  Minimizing total receipts is equivalent to maximizing the
    objective.
    """
    _check_k(k)
    nodes, root = _binarize(t)

    # memo[(idx, budget, inflow)] = (min total received in subtree, choice)
    # choice = (filter_here, budget_left_child, left_inflow_out, right_inflow_out)
    memo: dict = {}

    def solve(idx: int | None, budget: int, inflow: int) -> int:
        if idx is None:
            return 0
        key = (idx, budget, inflow)
        if key in memo:
            return memo[key][0]
        node = nodes[idx]
        if node.orig is None:
            recv = 0
            opts = [(False, inflow)]  # dummies relay, never filter
        else:
            recv = inflow + (1 if node.source_edge else 0)
            opts = [(False, recv)]
            if budget > 0:
                opts.append((True, min(recv, 1)))
        best = None
        best_choice = None
        for filter_here, out in opts:
            sub_budget = budget - (1 if filter_here else 0)
            for j in range(sub_budget + 1):
                total = (
                    recv
                    + solve(node.left, j, out)
                    + solve(node.right, sub_budget - j, out)
                )
                if best is None or total < best:
                    best = total
                    best_choice = (filter_here, j, out)
        memo[key] = (best, best_choice)
        return best

    def collect(idx: int | None, budget: int, inflow: int, chosen: set[int]) -> None:
        if idx is None:
            return
        node = nodes[idx]
        _, (filter_here, j, out) = memo[(idx, budget, inflow)]
        if filter_here:
            chosen.add(node.orig)
        sub_budget = budget - (1 if filter_here else 0)
        collect(node.left, j, out, chosen)
        collect(node.right, sub_budget - j, out, chosen)

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 4 * len(nodes) + 100))
    try:
        solve(root, k, 0)
        chosen: set[int] = set()
        collect(root, k, 0, chosen)
    finally:
        sys.setrecursionlimit(old_limit)
    return FilterSet(frozenset(chosen), "tree-dp", k)
