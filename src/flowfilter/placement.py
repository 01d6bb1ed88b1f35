"""Filter-selection algorithms.

Deterministic selectors (degree product, full impact with and without
recomputation, prefix-times-out-degree), the closed-form unbounded optimum,
an exact dynamic program for communication trees, and three seeded random
baselines.  Selectors return node indices (``CGraph.sorted_labels`` names
them).  The greedies return their picks in order, so the first j picks
for budget k are the picks for budget j.  ``tree_dp`` and
``randomized_baseline`` set up once and return a function that picks a
frozenset per budget (and seed).  Every selector takes the graph, and
``tree_dp`` certifies it as a communication tree itself.  All tie-breaks
go to the smallest dense node index, so every deterministic selector is
reproducible bit for bit.
"""

import functools
import random
from collections.abc import Callable
from operator import add, mul

from .graph import CGraph, GraphError, topological_order
from .path_stats import compute_prefix, impact_table


class NotACTreeError(GraphError):
    """Graph is not a communication tree (source removal must leave a forest)."""


def eligible_nodes(g: CGraph) -> list[int]:
    """Nodes a deterministic selector may pick: everything but sources."""
    return [v for v in range(g.n) if v not in g.sources]


def check_k(k: int) -> None:
    """Reject a negative filter budget."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")


def _ranked(g: CGraph, score, k: int) -> tuple[int, ...]:
    # the k eligible nodes of highest score, highest first, then smallest index
    check_k(k)
    return tuple(sorted(eligible_nodes(g), key=lambda v: (-score[v], v))[:k])


def _rounds(g: CGraph, k: int, scores, stop_at_zero: bool) -> tuple[int, ...]:
    # up to k rounds, each picking the eligible node not yet picked that
    # scores(picks) rates highest; with stop_at_zero, none once it scores <= 0.
    # No round looks past the picks before it, so the picks for k are the
    # first k of the picks for any larger k.
    check_k(k)
    picks: list[int] = []
    left = eligible_nodes(g)
    while left and len(picks) < k:
        score = scores(picks)
        best = max(left, key=score.__getitem__)  # the first maximum in index order
        if stop_at_zero and score[best] <= 0:
            break
        picks.append(best)
        left.remove(best)
    return tuple(picks)


def greedy_1(g: CGraph, k: int) -> tuple[int, ...]:
    """The top k nodes by in-degree times out-degree, best first.

    A ranking, so the picks for budget j are the first j of any larger k's.
    """
    return _ranked(g, [g.in_degree(v) * g.out_degree(v) for v in range(g.n)], k)


def greedy_max(g: CGraph, k: int) -> tuple[int, ...]:
    """The top k nodes by impact computed once, with no recomputation, best first.

    A ranking, so the picks for budget j are the first j of any larger k's.
    """
    return _ranked(g, impact_table(g, ()), k)


def greedy_all(g: CGraph, k: int) -> tuple[int, ...]:
    """k rounds of picking the highest-impact node, recomputing each round.

    Returns the picks in the order the rounds make them, and stops early
    once no remaining node has positive impact.  A round sees only the
    picks before it, so the picks for budget j are the first j of any
    larger k's.
    """
    return _rounds(g, k, lambda picks: impact_table(g, picks), True)


def greedy_l(g: CGraph, k: int) -> tuple[int, ...]:
    """k rounds of picking the best prefix times out-degree, in pick order.

    Cheaper than full impact: only the prefix table is refreshed per round.
    The score says nothing about true gain, so there is no early stop; all
    k picks are made while eligible nodes remain.  As in ``greedy_all``,
    the picks for budget j are the first j of any larger k's.
    """
    degree = [len(out) for out in g.out_adj]
    return _rounds(g, k, lambda picks: list(map(mul, compute_prefix(g, picks), degree)), False)


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


def randomized_baseline(g: CGraph, variant: str) -> Callable[[int, int], frozenset[int]]:
    """Set up one random baseline on ``g`` once; return ``pick(k, seed)``.

    rand_k draws exactly k distinct nodes uniformly; rand_i keeps each node
    independently with probability k/n; rand_w keeps node v with probability
    w(v) * k/n capped at 1, where w >= 0 favours nodes feeding low-in-degree
    children.  All three draw over every node; a source picked as a filter
    is inert during propagation.  rand_i (w = 1) and rand_w share one draw
    loop; the weights are computed here, the probabilities once per k.
    """
    if variant not in ("rand_k", "rand_i", "rand_w"):
        raise ValueError(f"unknown baseline variant {variant!r}")
    weights = rand_w_weights(g) if variant == "rand_w" else [1.0] * g.n

    @functools.cache
    def probs(k: int) -> list[float]:
        scale = k / g.n
        return [min(1.0, w * scale) for w in weights]

    def pick(k: int, seed: int) -> frozenset[int]:
        check_k(k)
        if seed is None:  # random.Random(None) would seed from the OS
            raise ValueError(f"{variant} needs an integer seed, got None")
        rng = random.Random(seed)
        if variant != "rand_k":
            return frozenset([v for v, p in enumerate(probs(k)) if rng.random() < p])
        if k > g.n:
            raise ValueError(f"rand_k needs k <= n, got k={k}, n={g.n}")
        return frozenset(rng.sample(range(g.n), k))

    return pick


# --- communication trees ----------------------------------------------------


def as_ctree(g: CGraph) -> tuple[tuple, tuple]:
    """Certify that ``g`` is a communication tree, or raise NotACTreeError.

    The graph minus its source is a forest of out-trees; the source feeds
    each root of the forest, so with the source as their parent the whole
    graph is one tree.  Returns two per-node tuples ``(children, extra)``:
    ``children[v]`` lists v's tree children, the source's being the roots,
    and ``extra[v]`` is True when a source edge feeds v on top of its tree
    edge (never at a root or at the source).
    """
    if len(g.sources) != 1:
        raise NotACTreeError(f"expected exactly one source, got {len(g.sources)}")
    source = next(iter(g.sources))
    try:
        topological_order(g)
    except GraphError as exc:
        raise NotACTreeError(f"graph is cyclic: {exc}") from None

    children: list[list[int]] = [[] for _ in range(g.n)]
    extra = [False] * g.n
    for v in range(g.n):
        if v == source:
            continue
        tree_parents = [p for p in g.in_adj[v] if p != source]
        if len(tree_parents) > 1:
            raise NotACTreeError(
                f"node {g.labels[v]!r} has {len(tree_parents)} non-source parents"
            )
        if not tree_parents and source not in g.in_adj[v]:
            raise NotACTreeError(f"node {g.labels[v]!r} is not reachable from the source")
        children[tree_parents[0] if tree_parents else source].append(v)
        extra[v] = bool(tree_parents) and source in g.in_adj[v]
    return tuple(map(tuple, children)), tuple(extra)


def _at(row: list, b: int) -> int:
    """``row``'s value at budget b: rows stop where more budget buys nothing."""
    return row[b] if b < len(row) else row[-1]


def _fold(tables: list, k: int) -> list:
    """Min-plus joins of one or more [row][budget] tables, folded right to left.

    Entry i of the result is the join of ``tables[i:]``: the fewest
    receipts when those children share each budget.  Entry 0 is the whole
    join, and one table's join is the table itself; the others are what
    ``_split`` needs to pick each child's budget.  A join is as wide as its
    parts allow, up to k + 1 budgets, and each budget looks only at splits
    inside both parts' widths.
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
    """Yield (child, budget) pairs for ``kids`` in their tables' row ``out``.

    Each child but the last gets the smallest budget that reaches the
    minimum, and the last takes what is left, as in the chain (c1, (c2,
    (... c_m))), so a single child takes the whole budget.  Budget past
    where a child's row stops falling buys its subtree nothing, and there
    the strict filter test picks the same filters as at the smallest budget.
    """
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
    yield kids[-1], budget


def tree_dp(g: CGraph, k_max: int) -> Callable[[int], frozenset[int]]:
    """Build the tree DP's tables once; return ``traceback(k)`` for k <= k_max.

    ``traceback(k)`` is an exact optimal filter set of size <= k.  The
    tables come from one bottom-up pass over the tree rooted at the source.
    Node v gets a table [inflow - 1][budget] of the fewest receipts in v's
    subtree, where inflow >= 1 is the copy count its tree parent forwards.
    v receives its inflow, plus one copy if a source edge that is not its
    tree edge feeds it, so its rows number 1 plus the extra source edges
    above it, and tables grow with depth on deep chains.  Budget runs up to
    the number of non-leaf nodes in v's subtree, capped at k_max, since
    more buys nothing; so no table or traceback step grows with a k_max
    past the number of non-source nodes.

    Every internal node joins its children's tables the same way, in
    O(rows * w^2) per child for budget widths w <= k_max + 1; one child's
    join is its own table, at no cost.  A leaf's subtree receives just its
    own copies.  No argmin tables are stored: the top-down traceback
    recomputes each budget split (``_split``) at the one (row, budget) cell
    it visits.  A node becomes a filter only when that is strictly better,
    so never the source, which forwards one copy either way.  Minimizing
    total receipts is equivalent to maximizing the objective.

    ``g`` is certified by ``as_ctree`` first, so a graph that is not a
    communication tree raises NotACTreeError before k_max is checked.  A
    value at budget b reads only budgets <= b, so ``traceback(k)`` returns
    exactly the set that ``tree_dp(g, k)(k)`` would.  It raises ValueError
    for k < 0 or k > k_max.
    """
    children, extra = as_ctree(g)
    check_k(k_max)
    n = g.n
    order = topological_order(g)
    top = [0] * n  # extra source edges above v: v's largest inflow - 1
    for v in order:
        for c in children[v]:
            top[c] = top[v] + extra[v]

    best: list = [None] * n  # v's [inflow - 1][budget] table
    suffix: list = [None] * n  # ``_fold`` of v's children, if it has any
    for v in reversed(order):
        kids, recvs = children[v], range(1 + extra[v], top[v] + extra[v] + 2)
        if not kids:
            best[v] = [[recv] for recv in recvs]
            continue
        suffix[v] = _fold([best[c] for c in kids], k_max)
        table = suffix[v][0]
        # at budget b >= 1, keep with b or filter with b - 1; v's rows are
        # one budget wider than the join's, up to k_max + 1
        cut = table[0]  # a filter forwards one copy
        full = len(cut) > k_max
        best[v] = []
        for recv in recvs:
            keep = table[recv - 1]
            more = keep[1:] if full else keep[1:] + keep[-1:]
            best[v].append([recv + keep[0]] + [recv + m for m in map(min, more, cut)])

    def traceback(k: int) -> frozenset[int]:
        check_k(k)
        if k > k_max:
            raise ValueError(f"k must be <= k_max = {k_max}, got {k}")
        chosen: set[int] = set()
        stack = [(next(iter(g.sources)), 0, k)]  # (node, inflow - 1, budget)
        while stack:
            v, row, budget = stack.pop()
            kids = children[v]
            if not kids:
                continue  # a leaf filter removes nothing
            table = suffix[v][0]
            out = row + extra[v]  # the children's row unless v filters
            if budget and _at(table[0], budget - 1) < _at(table[out], budget):
                chosen.add(v)
                out, budget = 0, budget - 1
            stack.extend((c, out, j) for c, j in _split(kids, suffix[v], best, out, budget))
        return frozenset(chosen)

    return traceback
