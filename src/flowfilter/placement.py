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
from operator import add

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


def _at(row: list, b: int) -> int:
    """``row``'s value at budget b: rows stop where more budget buys nothing."""
    return row[b] if b < len(row) else row[-1]


def _fold(tables: list, k: int) -> list:
    """Min-plus joins of two or more [row][budget] tables, folded right to left.

    Entry i of the result is the join of ``tables[i:]``: the fewest
    receipts when those children share each budget.  Entry 0 is the whole
    join; the others are what ``_split`` needs to pick each child's budget.
    A join is as wide as its parts allow, up to k + 1 budgets, and each
    budget looks only at splits inside both parts' widths.
    """
    suffix = [tables[-1]]
    for table in tables[-2::-1]:
        acc = suffix[-1]
        w, wa = len(table[0]), len(acc[0])
        # budget b splits as j + (b - j), j < w and b - j < wa; the smallest
        # j is lo, and acc[b - lo] is at index lo + wa - 1 - b when reversed
        starts = [
            (lo, lo + wa - 1 - b)
            for b in range(min(k + 1, w + wa - 1))
            for lo in (max(0, b - wa + 1),)
        ]
        suffix.append([
            [min(map(add, row[lo:], rev[at:])) for lo, at in starts]
            for row, rev in zip(table, (acc_row[::-1] for acc_row in acc))
        ])
    suffix.reverse()
    return suffix


def _split(kids: tuple, suffix: list, best: list, out: int, budget: int):
    """Yield (child, budget) pairs for ``kids`` at outflow ``out``.

    Each child but the last gets the smallest budget that reaches the
    minimum, and with two or more children the last takes what is left, as
    in the chain (c1, (c2, (... c_m))).  A single child also gets only the
    smallest budget that reaches its minimum.
    """
    if len(kids) == 1:
        row = best[kids[0]][out]
        yield kids[0], row.index(_at(row, budget))  # rows never rise with budget
        return
    for i, c in enumerate(kids[:-1]):
        # past its row's width a child's value stops falling while the
        # rest's can only rise, so larger budgets never reach the minimum first
        row, rest = best[c][out], suffix[i + 1][out]
        sums = [
            row[j] + _at(rest, budget - j) for j in range(min(budget + 1, len(row)))
        ]
        j = sums.index(min(sums))
        budget -= j
        yield c, j
    if kids:
        yield kids[-1], budget


def tree_dp(t: CTree, k: int) -> frozenset[int]:
    """Exact optimal filter set of size <= k on a communication tree.

    One bottom-up pass over the tree.  Node v gets a table [inflow][budget]
    of the fewest receipts in v's subtree, where inflow is the copy count
    its tree parent forwards.  Inflow can reach the number of source-edge
    nodes above v, so tables grow with depth on deep chains.  Budget runs
    up to the number of non-leaf nodes in v's subtree, capped at k, since
    more buys nothing; so no table or traceback step grows with a k past
    the number of non-source nodes.

    Only a node with two or more children joins its children's tables, in
    O(rows * w^2) per child for budget widths w <= k + 1.  A leaf's subtree
    receives just its own copies, and a single child's table already is
    the join, since tables never rise with budget.  No argmin tables are
    stored: the top-down traceback recomputes each budget split
    (``_split``) at the one (outflow, budget) cell it visits.  A node
    becomes a filter only when that is strictly better.  Minimizing total
    receipts is equivalent to maximizing the objective.
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

    best: list = [None] * n  # v's [inflow][budget] table
    suffix: list = [None] * n  # ``_fold`` of v's children, if it has two or more
    for v in reversed(order):
        kids, recvs = t.children[v], range(se[v], top[v] + se[v] + 1)
        if not kids:
            best[v] = [[recv] for recv in recvs]
            continue
        if len(kids) == 1:
            table = best[kids[0]]
        else:
            suffix[v] = _fold([best[c] for c in kids], k)
            table = suffix[v][0]
        # at budget b >= 1, keep with b or filter with b - 1; v's rows are
        # one budget wider than the join's, up to k + 1
        full = len(table[0]) > k
        best[v] = []
        for recv in recvs:
            keep, cut = table[recv], table[min(recv, 1)]
            more = keep[1:] if full else keep[1:] + keep[-1:]
            best[v].append([recv + keep[0]] + [recv + m for m in map(min, more, cut)])

    roots = t.roots
    root_suffix = _fold([best[r] for r in roots], k) if len(roots) >= 2 else None
    chosen: set[int] = set()
    stack = [(r, 0, j) for r, j in _split(roots, root_suffix, best, 0, k)]
    while stack:
        v, inflow, budget = stack.pop()
        kids = t.children[v]
        if not kids:
            continue  # a leaf filter removes nothing
        table = best[kids[0]] if len(kids) == 1 else suffix[v][0]
        out = inflow + se[v]  # copies v forwards unless it filters
        if budget and _at(table[min(out, 1)], budget - 1) < _at(table[out], budget):
            chosen.add(v)
            out, budget = min(out, 1), budget - 1
        stack.extend((c, out, j) for c, j in _split(kids, suffix[v], best, out, budget))
    return frozenset(chosen)
