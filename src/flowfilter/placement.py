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
import math
import random
import struct
from bisect import bisect_right
from collections import deque
from collections.abc import Callable
from operator import add, mul

from .graph import CGraph, GraphError, single_source, topological_order
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
    return _ranked(g, [len(i) * len(o) for i, o in zip(g.in_adj, g.out_adj)], k)


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

    Exactly the non-source nodes with more than one in-edge from a reached
    node (no-filter prefix > 0) and at least one out-edge: every other node
    forwards at most one copy anyway.  Raises CycleError on a cyclic graph.
    """
    prefix = compute_prefix(g, ())
    return frozenset(
        v for v in eligible_nodes(g)
        if g.out_adj[v] and sum(1 for u in g.in_adj[v] if prefix[u]) > 1
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
    is inert during propagation.  rand_i (w = 1) and rand_w compute their
    weights and lane masks here and, once per k, pack the probabilities
    into the bounds that ``_draws_below`` tests all n draws of a pick
    against at once; the picks are those of one ``rng.random() < p`` per
    node, in node order.  The masks live and die with ``pick``.
    """
    if variant not in ("rand_k", "rand_i", "rand_w"):
        raise ValueError(f"unknown baseline variant {variant!r}")
    weights = rand_w_weights(g) if variant == "rand_w" else [1.0] * g.n
    masks = None if variant == "rand_k" else _lane_masks(g.n)

    @functools.cache
    def bounds(k: int) -> int:
        scale = k / g.n
        return _pack_bounds([min(1.0, w * scale) for w in weights])

    def pick(k: int, seed: int) -> frozenset[int]:
        check_k(k)
        if seed is None:  # random.Random(None) would seed from the OS
            raise ValueError(f"{variant} needs an integer seed, got None")
        rng = random.Random(seed)
        if variant != "rand_k":
            return frozenset(_draws_below(rng, bounds(k), g.n, masks))
        if k > g.n:
            raise ValueError(f"rand_k needs k <= n, got k={k}, n={g.n}")
        return frozenset(rng.sample(range(g.n), k))

    return pick


def _pack_bounds(probs: list[float]) -> int:
    """One 64-bit lane per probability p: 2**63 - 1 + ceil(p * 2**53)."""
    return int.from_bytes(
        struct.pack(f"<{len(probs)}Q", *[(1 << 63) - 1 + math.ceil(p * (1 << 53)) for p in probs]),
        "little",
    )


def _lane_masks(n: int) -> tuple[int, int, int]:
    """Bits 0..26, bits 0..25 and bit 63 of each of n 64-bit lanes."""
    ones = ((1 << (64 * n)) - 1) // ((1 << 64) - 1)
    return ones * ((1 << 27) - 1), ones * ((1 << 26) - 1), ones << 63


def _draws_below(rng: random.Random, bounds: int, n: int, masks: tuple) -> list[int]:
    """Each v < n whose draw, the v-th ``rng.random()``, is below lane v's p.

    ``bounds`` comes from ``_pack_bounds`` and ``masks`` from
    ``_lane_masks(n)``.  ``getrandbits(64 * n)`` holds
    the 32-bit words that n ``random()`` calls would read, least significant
    first, so lane v holds draw v's two words w0 (low) and w1 (high), and
    ``random()`` would return a / 2**53 with a = (w0 >> 5) << 26 | w1 >> 6.
    Scaling by 2**53 is exact, so a / 2**53 < p exactly when a < ceil(p *
    2**53), which is when lane v of bounds - a reaches bit 63.  Every lane
    of bounds - a lies in [0, 2**64), so no lane borrows from the next.
    """
    low27, low26, guard = masks
    x = rng.getrandbits(64 * n)
    a = (x >> 5 & low27) << 26 | x >> 38 & low26
    hits = ((bounds - a) & guard).to_bytes(8 * n, "little")
    picked = []
    i = hits.find(128, 7)  # bit 63 of lane v is 128 in byte 8v + 7
    while i >= 0:
        picked.append(i >> 3)
        i = hits.find(128, i + 8)
    return picked


# --- communication trees ----------------------------------------------------


def as_ctree(g: CGraph) -> tuple[tuple, tuple]:
    """Certify that ``g`` is a communication tree.

    The graph minus its source is a forest of out-trees; the source feeds
    each root of the forest, so with the source as their parent the whole
    graph is one tree.  Returns two per-node tuples ``(children, extra)``:
    ``children[v]`` lists v's tree children in index order, the source's
    being the roots, and ``extra[v]`` is True when a source edge feeds v on
    top of its tree edge (never at a root or at the source).  After
    ``single_source``'s checks (GraphError, then CycleError), the first
    node in index order with no parent or with more than one non-source
    parent raises NotACTreeError.

    Every node but the source has in-degree 1, or 2 with the source among
    its tails.  So every out-edge of a node but the source is a tree edge,
    the roots are the source's heads of in-degree 1, and a node is fed an
    extra source edge exactly when its in-degree is 2.  An acyclic graph
    that passes has no edge into its source: following tails up from one
    would reach the source again.
    """
    source = single_source(g)
    for v, tails in enumerate(g.in_adj):
        if len(tails) != 1 and v != source and (len(tails) != 2 or source not in tails):
            if not tails:
                raise NotACTreeError(f"node {g.labels[v]!r} is not reachable from the source")
            parents = len(tails) - (source in tails)  # 2 or more, as v failed the screen
            raise NotACTreeError(f"node {g.labels[v]!r} has {parents} non-source parents")
    children = [tuple(sorted(heads)) for heads in g.out_adj]
    children[source] = tuple(v for v in children[source] if len(g.in_adj[v]) == 1)
    return tuple(children), tuple(len(tails) == 2 for tails in g.in_adj)


# a one-child node with more rows (inflows) than this keeps its columns as
# lines; at least 1, since its child then has two rows or more, and a flat
# column needs two to be read as lines
_FLAT_ROWS = 24


def _at(table: list, rows: int, budget: int, row: int) -> int:
    """``table``'s entry at (budget, row): past its last column, the last one's."""
    return table[min(budget, len(table) // rows - 1) * rows + row]


def _lines(column: list, top: int, depth: int, pre: int) -> deque:
    """A flat column of two or more rows as the lines of its pieces.

    The lines are (slope, intercept) pairs in the coordinate that
    ``tree_dp`` shares along a chain: inflow x is u = x - ``top``, and
    value y is h = y + ``depth`` * u + ``pre``.  Each piece between
    adjacent inflows gives one line, and a column is concave, so it is the
    least of them; a piece with the slope of the one before adds none.
    The first line is least at inflow 1.  ``_step`` runs only past
    ``_FLAT_ROWS`` >= 1 rows, so a one-row column, which has no piece,
    never comes here.
    """
    lines: deque = deque()
    for u, (y0, y1) in enumerate(zip(column, column[1:]), 1 - top):
        slope = y1 - y0 + depth
        if not lines or slope != lines[-1][0]:
            lines.append((slope, y0 + pre + (depth - slope) * u))
    return lines


def _least(lines: deque, u: int) -> int:
    """Pop the lines no longer least at u off the left; the least h at u.

    The lines are least in turn as u rises, so each is popped once.
    """
    while len(lines) > 1 and (lines[1][0] - lines[0][0]) * u <= lines[0][1] - lines[1][1]:
        lines.popleft()
    return lines[0][0] * u + lines[0][1]


def _expand(lines: deque, top: int, depth: int, pre: int, rows: int) -> list:
    """The column that ``lines`` hold, at inflows 1 .. ``rows``; undoes ``_lines``.

    Like ``_least``, it pops the lines it has passed.
    """
    return [_least(lines, u) - depth * u - pre for u in range(1 - top, 1 - top + rows)]


def _step(cols: list, top: int, depth: int, e: int, k: int) -> tuple[list, list]:
    """A one-child node's columns, as lines, from its child's ``cols``, in place.

    ``cols`` holds one deque of lines per budget in the coordinate of
    ``_lines``, where reading the child at inflow + e and adding v's own
    receipts change no line; ``top`` is v's and ``depth`` the child's.  At
    b >= 1 v's column is the child's capped at the child's budget b - 1
    value at inflow 1, where v filters: the cap is the line of slope
    ``depth`` through that point, the smallest slope so far.  Lines the
    cap lies below wherever they are least pop off the right, the cap is
    appended, and, at every budget, lines no longer least at v's inflow 1
    pop off the left.  Each line is popped at most once.  Also returns,
    per budget from 1 up, how many inflows from 1 up the cap leaves alone,
    read where it crosses the last line: at those v does not filter.
    """
    start = 1 - top  # v's inflow 1; the child's is start - e
    if len(cols) <= k:  # one budget wider: the new column reads the child's last
        cols.append(deque(cols[-1]))
    kept = [0] * (len(cols) - 1)  # budgets 1 and up: budget 0 never filters
    for b in range(len(cols) - 1, 0, -1):  # downwards, so cols[b - 1] is still the child's
        lines = cols[b]
        cap = _least(cols[b - 1], start - e) - depth * (start - e)  # the cap line's intercept
        # the last line is least from where it meets the one before: pop it
        # if the cap is not above it there (cross-multiplied)
        while len(lines) > 1:
            (s0, c0), (s1, c1) = lines[-2], lines[-1]
            if (cap - c1) * (s0 - s1) > (s1 - depth) * (c1 - c0):
                break
            lines.pop()
        # the child's lines are steeper than the cap, since a node's own
        # receipts make its column rise at least 1 an inflow
        slope, intercept = lines[-1]
        kept[b - 1] = max(0, min(top + 1, (cap - intercept) // (slope - depth) - start + 1))
        lines.append((depth, cap))
    for lines in cols:
        _least(lines, start)
    return cols, kept


def _join(a: list, b: list, rows: int, k: int) -> list:
    """Min-plus join of two budget-major tables with ``rows`` rows each.

    Entry (budget, row) of the result is the fewest receipts when the two
    parts share that budget.  It is as wide as its parts allow, up to k + 1
    budgets.  Min-plus is commutative, so the loop runs over the budgets j
    of the narrower part: its column j, tiled, plus the wider part's
    leading columns gives every split that hands j to the narrower part.
    """
    if len(a) > len(b):
        a, b = b, a
    wa, wb = len(a) // rows, len(b) // rows
    width = min(k + 1, wa + wb - 1)
    out = list(map(add, a[:rows] * wb, b))
    for j in range(1, wa):
        # budgets j .. j + wb - 1, capped at width; only the last is new
        at = j * rows
        sums = list(map(add, a[at : at + rows] * min(width - j, wb), b))
        out[at:] = map(min, out[at:], sums)
        out += sums[len(out) - at :]
    return out


def _fold(tables: list, rows: int, k: int) -> list:
    """``_join`` of one or more budget-major tables, folded right to left.

    Entry i of the result is the join of ``tables[i:]``: the fewest
    receipts when those children share each budget.  Entry 0 is the whole
    join, read only while the parent's table is built, and one table's join
    is the table itself; the others are what ``_split`` needs to pick each
    child's budget.
    """
    suffix = [tables[-1]]
    for table in tables[-2::-1]:
        suffix.append(_join(table, suffix[-1], rows, k))
    suffix.reverse()
    return suffix


def _split(kids: tuple, best: list, suffix: list | None, rows: int, out: int, budget: int):
    """Yield (child, budget) pairs for ``kids`` in their tables' row ``out``.

    ``best[c]`` is child c's flat table and ``suffix`` is entries 1.. of the
    children's ``_fold``, so entry i is the join of the children after
    ``kids[i]``.  The whole join is never read, and a single child has no
    suffix (None), so no table is read.  Each child but the last gets the
    smallest budget that reaches the minimum, and the last takes what is
    left, as in the chain (c1, (c2, (... c_m))), so a single child takes
    the whole budget.  Budget past where a child's table stops falling
    buys its subtree nothing, and there the filter rule picks the same
    filters as at the smallest budget.
    """
    for c, rest in zip(kids, suffix or ()):
        # past its table's width a child's value stops falling while the
        # rest's can only rise, so larger budgets never reach the minimum first
        row = best[c][out : (budget + 1) * rows : rows]
        sums = [v + _at(rest, rows, budget - j, out) for j, v in enumerate(row)]
        j = sums.index(min(sums))
        budget -= j
        yield c, j
    yield kids[-1], budget


def tree_dp(g: CGraph, k_max: int) -> Callable[[int], frozenset[int]]:
    """Build the tree DP's tables once; return ``traceback(k)`` for k <= k_max.

    ``traceback(k)`` is an exact optimal filter set of size <= k.  The
    tables come from one bottom-up pass over the tree rooted at the source.
    Node v gets a table of the fewest receipts in v's subtree per budget
    and inflow, where inflow >= 1 is the copy count its tree parent
    forwards.  v receives its inflow, plus one copy if a source edge that
    is not its tree edge feeds it, so its rows number 1 plus the extra
    source edges above it, and rows grow with depth on deep chains.
    Budget runs up to the number of non-leaf nodes in v's subtree, capped
    at k_max, since more buys nothing; so no table or traceback step grows
    with a k_max past the number of non-source nodes.

    Read along inflow, each budget's column is nondecreasing and concave:
    with the filters below v fixed, v's subtree receipts are affine in
    inflow, and the column is the minimum of those lines.  A leaf, a node
    with several children and a node with at most ``_FLAT_ROWS`` rows keep
    one flat list in budget-major order: entry ``b * rows + inflow - 1`` is
    the value at budget b, so a column is one slice.  Filtering v at budget
    b caps each inflow's value at the budget b - 1 value of inflow 1, and a
    column is nondecreasing, so the cap is a bisect, a slice and a repeat.
    Joining two children costs, per budget of the narrower child, one pass
    over the wider child's leading columns: O(rows * w_a * w_b) for widths
    w_a <= w_b <= k_max + 1, run in ``map``.  A one-child node with more
    rows keeps each column as those lines, exact ints in a coordinate its
    whole chain shares: inflow x is u = x - top[v] and value y is h = y +
    depth[v] * u + pre[v], where depth[c] = depth[v] + 1 and pre[c] =
    pre[v] + top[c] for a child c.  There, reading the child at inflow + e
    and adding v's own receipts change no line, so ``_step`` only appends
    the cap as a line per budget and pops the lines it hides (the
    convex-hull trick): amortized O(1) per node and budget.  It reads a
    flat child's columns as lines once (``_lines``), and a node with
    several children expands the columns of any child that holds lines at
    every inflow (``_expand``) and joins them flat.  On a chain with 3 of
    every 10 nodes source-fed, a column holds about 8 lines at 500 nodes
    and 47 at 5000, against up to 150 and 1500 rows, and no line is
    rewritten once made.

    A leaf's subtree receives just its own copies.  No argmin tables are
    stored.  Every internal node keeps, per budget from 1 up (no node
    filters at budget 0), how many rows from inflow 1 up its cap left
    alone, and the top-down traceback filters v at the rows past that
    count: one rule, read off the bisect that built the column.  The
    traceback recomputes each budget split (``_split``)
    at the one (budget, row) entry it visits, from the children's tables
    and all but the first entry of their ``_fold``; the whole join is not
    kept.  A one-child node needs no split, so its child's table is
    dropped, and a chain's memory is O(n * k_max) in either layout, not
    its tables.  A node becomes a filter only when that is strictly
    better, so never the source, which forwards one copy either way.
    Minimizing total receipts is equivalent to maximizing the objective.

    ``g`` is certified by ``as_ctree`` first, so a graph without exactly
    one source raises GraphError, a cyclic one CycleError, and one that is
    not a communication tree NotACTreeError, all before k_max is checked.  A
    value at budget b reads only budgets <= b, so ``traceback(k)`` returns
    exactly the set that ``tree_dp(g, k)(k)`` would.  It raises ValueError
    for k < 0 or k > k_max.
    """
    children, extra = as_ctree(g)
    check_k(k_max)
    n = g.n
    order = topological_order(g)
    top = [0] * n  # extra source edges above v: v's largest inflow - 1
    depth = [0] * n  # the source's is 0
    pre = [0] * n  # the sum of top from v's root down to v
    for v in order:
        for c in children[v]:
            top[c] = top[v] + extra[v]
            depth[c] = depth[v] + 1
            pre[c] = pre[v] + top[c]

    best: list = [None] * n  # v's table, flat or as lines
    kept: list = [None] * n  # per budget from 1 up, how many of v's rows do not filter
    suffix: list = [None] * n  # where v has two or more children: ``_fold``'s entries 1..
    for v in reversed(order):
        kids, e = children[v], extra[v]
        span = top[v] + 1  # v's rows
        rows = span + e  # the children's rows: v forwards what it receives
        if not kids:  # v receives inflow + e
            best[v] = list(range(1 + e, rows + 1))
            continue
        if span > _FLAT_ROWS and len(kids) == 1:  # lines are read by v alone
            (c,) = kids
            cols = best[c]
            if len(children[c]) != 1:  # a leaf or a join is flat
                coords = top[c], depth[c], pre[c]
                cols = [_lines(cols[i : i + rows], *coords) for i in range(0, len(cols), rows)]
            best[v], kept[v] = _step(cols, top[v], depth[c], e, k_max)
            best[c] = None
            continue
        for c in kids:  # a one-child child past _FLAT_ROWS holds lines: expand them
            if rows > _FLAT_ROWS and len(children[c]) == 1:
                coords = top[c], depth[c], pre[c]
                best[c] = [y for col in best[c] for y in _expand(col, *coords, rows)]
        table, *rest = _fold([best[c] for c in kids], rows, k_max)
        if rest:
            suffix[v] = rest
        else:  # ``_split`` reads no table for a single child
            best[kids[0]] = None
        width = len(table) // rows
        wide = min(width + 1, k_max + 1)  # v's table is one budget wider
        # at budget b >= 1, keep with b or filter with b - 1, when v forwards
        # one copy (row 0)
        fewest = table[e:rows]  # below v, per budget and row, before v's copies
        kept[v] = counts = []
        for b in range(1, wide):
            cut, lo = table[(b - 1) * rows], min(b, width - 1) * rows + e
            hi = lo - e + rows
            # with the filters below v fixed, receipts are nondecreasing in
            # inflow, and a minimum of nondecreasing functions is too: each
            # column is sorted, so min(column, cut) is a prefix, then cut
            at = bisect_right(table, cut, lo, hi)
            counts.append(at - lo)
            fewest += table[lo:at]
            fewest += [cut] * (hi - at)
        best[v] = list(map(add, fewest, list(range(1 + e, rows + 1)) * wide))

    def traceback(k: int) -> frozenset[int]:
        check_k(k)
        if k > k_max:
            raise ValueError(f"k must be <= k_max = {k_max}, got {k}")
        chosen: set[int] = set()
        stack = [(next(iter(g.sources)), 0, k)]  # (node, inflow - 1, budget)
        while stack:
            v, row, budget = stack.pop()
            kids = children[v]
            if not kids or not budget:
                continue  # a leaf filter removes nothing; no budget, no filter
            rows = top[v] + extra[v] + 1
            out = row + extra[v]  # the children's row unless v filters
            if row >= kept[v][min(budget, len(kept[v])) - 1]:  # v filters where its cap cut
                chosen.add(v)
                out, budget = 0, budget - 1
            stack.extend((c, out, j) for c, j in _split(kids, best, suffix[v], rows, out, budget))
        return frozenset(chosen)

    return traceback
