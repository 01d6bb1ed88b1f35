"""Filter-selection algorithms.

Deterministic selectors (degree product, full impact with and without
recomputation, prefix-times-out-degree), the closed-form unbounded optimum,
an exact dynamic program for communication trees, and three seeded random
baselines.  Every selector returns its filter set as a frozenset of node
indices (``CGraph.sorted_labels`` names them).  All tie-breaks go to the
smallest dense node index, so every deterministic selector is reproducible
bit for bit.
"""

import random
from collections.abc import Callable
from dataclasses import dataclass

from .graph import CGraph, GraphError, topological_order
from .path_stats import compute_prefix, impact_table


class NotACTreeError(GraphError):
    """Graph is not a communication tree (source removal must leave a forest)."""


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


def greedy_1(g: CGraph, k: int) -> frozenset[int]:
    """Rank nodes by in-degree times out-degree and keep the top k."""
    _check_k(k)
    scored = [(v, g.in_degree(v) * g.out_degree(v)) for v in eligible_nodes(g)]
    return _top_k(scored, k)


def greedy_max(g: CGraph, k: int) -> frozenset[int]:
    """Top k nodes by impact computed once, with no recomputation."""
    _check_k(k)
    table = impact_table(g, ())
    scored = [(v, table[v]) for v in eligible_nodes(g)]
    return _top_k(scored, k)


def greedy_all(g: CGraph, k: int) -> frozenset[int]:
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
    return frozenset(members)


def greedy_l(g: CGraph, k: int) -> frozenset[int]:
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
    return frozenset(members)


def optimal_unbounded(g: CGraph) -> frozenset[int]:
    """Smallest filter set removing all removable redundancy.

    Exactly the non-source nodes with in-degree above one and at least one
    out-edge: every other node forwards at most one copy anyway.
    """
    return frozenset(
        v
        for v in eligible_nodes(g)
        if g.in_degree(v) > 1 and g.out_degree(v) > 0
    )


# --- random baselines -------------------------------------------------------


def rand_w_weights(g: CGraph) -> list[float]:
    """Per-node weight: sum over children u of 1/in_degree(u)."""
    inverse = [1.0 / len(a) if a else 0.0 for a in g.in_adj]
    return [sum(inverse[u] for u in g.out_adj[v]) for v in range(g.n)]


def random_picker(g: CGraph, k: int, variant: str) -> Callable[[int], frozenset[int]]:
    """Set up one random baseline on ``g`` once; return ``pick(seed)``.

    rand_k draws exactly k distinct nodes uniformly; rand_i keeps each node
    independently with probability k/n; rand_w keeps node v with probability
    w(v) * k/n clamped to [0, 1], where w favours nodes feeding low-in-degree
    children.  All three draw over every node; a source picked as a filter
    is inert during propagation.  rand_i and rand_w share one draw loop over
    per-node probabilities, which depend only on ``g`` and k and are
    computed here, not per pick.
    """
    _check_k(k)
    if variant == "rand_k":
        if k > g.n:
            raise ValueError(f"rand_k needs k <= n, got k={k}, n={g.n}")
        probs = None
    elif variant in ("rand_i", "rand_w"):
        scale = k / g.n
        if variant == "rand_i":
            probs = [min(1.0, scale)] * g.n
        else:
            probs = [min(1.0, max(0.0, w * scale)) for w in rand_w_weights(g)]
    else:
        raise ValueError(f"unknown baseline variant {variant!r}")

    def pick(seed: int) -> frozenset[int]:
        rng = random.Random(seed)
        if probs is None:
            return frozenset(rng.sample(range(g.n), k))
        return frozenset([v for v, p in enumerate(probs) if rng.random() < p])

    return pick


def randomized_baseline(g: CGraph, k: int, variant: str, seed: int) -> frozenset[int]:
    """One seeded pick of a random baseline: rand_k, rand_i, or rand_w.

    See ``random_picker`` for the three variants.
    """
    return random_picker(g, k, variant)(seed)


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


def _join(tables: list, rows: int, k: int) -> tuple[list, list]:
    """Min-plus join of the children's tables, taken right to left.

    Returns the joined table [outflow][budget] for outflows 0..rows-1 and,
    per folded child, the budget it gets at each (outflow, budget): the
    smallest one that reaches the minimum.  With two or more children the
    last one takes what is left, as in the chain (c1, (c2, (... c_m))); a
    single child is joined with an all-zero table.
    """
    if len(tables) >= 2:
        acc, fold = tables[-1], tables[-2::-1]
    else:
        acc, fold = [[0] * (k + 1) for _ in range(rows)], tables
    picks = []
    for table in fold:
        new_acc, pick = [], []
        for row, acc_row in zip(table, acc):
            vals, js = [], []
            for b in range(k + 1):
                sums = [row[j] + acc_row[b - j] for j in range(b + 1)]
                vals.append(min(sums))
                js.append(sums.index(vals[-1]))
            new_acc.append(vals)
            pick.append(js)
        acc = new_acc
        picks.append(pick)
    picks.reverse()
    return acc, picks


def _split(children: tuple, picks: list, out: int, budget: int):
    """Yield (child, budget) pairs as ``_join`` chose them."""
    for c, pick in zip(children, picks):
        j = pick[out][budget]
        budget -= j
        yield c, j
    if len(children) >= 2:
        yield children[-1], budget


def tree_dp(t: CTree, k: int) -> frozenset[int]:
    """Exact optimal filter set of size <= k on a communication tree.

    One bottom-up pass over the tree.  Node v gets a table [inflow][budget]
    of the fewest receipts in v's subtree, where inflow is the copy count
    its tree parent forwards.  Inflow can reach the number of source-edge
    nodes above v, so tables grow with depth on deep chains.  A node
    becomes a filter only when that is strictly better, and ties between
    children go as in ``_join``.  Minimizing total receipts is equivalent
    to maximizing the objective.
    """
    _check_k(k)
    n, se = t.graph.n, t.has_source_edge
    top = [0] * n  # source-edge nodes above v: v's largest inflow
    order = []  # pre-order: parents before children
    stack = list(t.roots)
    while stack:
        v = stack.pop()
        order.append(v)
        for c in t.children[v]:
            top[c] = top[v] + se[v]
        stack.extend(t.children[v])

    best: list = [None] * n  # v's [inflow][budget] table, until v's parent joins it
    joined: list = [None] * n  # v's children joined over v's outflow, and the picks
    for v in reversed(order):
        kids = t.children[v]
        joined[v] = _join([best[c] for c in kids], top[v] + se[v] + 1, k)
        for c in kids:
            best[c] = None
        table = joined[v][0]
        best[v] = []
        for recv in range(se[v], top[v] + se[v] + 1):
            keep, cut = table[recv], table[min(recv, 1)]
            best[v].append(
                [recv + keep[0]]
                + [recv + min(keep[b], cut[b - 1]) for b in range(1, k + 1)]
            )

    _, root_picks = _join([best[r] for r in t.roots], 1, k)
    chosen: set[int] = set()
    stack = [(r, 0, j) for r, j in _split(t.roots, root_picks, 0, k)]
    while stack:
        v, inflow, budget = stack.pop()
        table, picks = joined[v]
        out = inflow + se[v]  # copies v forwards unless it filters
        if budget and table[min(out, 1)][budget - 1] < table[out][budget]:
            chosen.add(v)
            out, budget = min(out, 1), budget - 1
        stack.extend((c, out, j) for c, j in _split(t.children[v], picks, out, budget))
    return frozenset(chosen)
