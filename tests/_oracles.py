"""Brute-force oracles and seeded random-graph generators shared by the tests.

Everything here is written for clarity, not speed, and stays independent
of the recursions it is used to check.
"""

import random
from collections import deque
from itertools import combinations

from flowfilter.graph import (
    CGraph,
    GraphError,
    ParseError,
    add_super_source,
    build_graph,
    single_source,
)
from flowfilter.path_stats import compute_prefix, impact_table
from flowfilter.placement import NotACTreeError, eligible_nodes
from flowfilter.propagation import simulate


class CGraphReference:
    """``CGraph`` built one edge at a time, each edge checked as it comes.

    Its labels are distinct, and its edges and sources index them, as a
    loader's are.  ``graph.topological_order`` reads it like a CGraph, so
    the order (or the cycle) it reports comes from this class's own Kahn
    pass.
    """

    __slots__ = ("labels", "edges", "out_adj", "in_adj", "sources", "_order")

    def __init__(self, labels, edges, sources=None):
        if not labels:
            raise GraphError("graph must have at least one node")
        self.labels = tuple(labels)
        n = len(self.labels)
        seen = set()
        out_lists = [[] for _ in range(n)]
        in_lists = [[] for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at node {self.labels[u]!r}")
            if (u, v) in seen:
                raise GraphError(
                    f"duplicate edge {self.labels[u]!r} -> {self.labels[v]!r}"
                )
            seen.add((u, v))
            out_lists[u].append(v)
            in_lists[v].append(u)
        self.edges = tuple((u, v) for u, v in edges)
        self.out_adj = tuple(tuple(l) for l in out_lists)
        self.in_adj = tuple(tuple(l) for l in in_lists)
        if sources is None:
            self.sources = frozenset(i for i in range(n) if not in_lists[i])
        else:
            self.sources = frozenset(sources)
        indeg = [len(l) for l in in_lists]
        ready = deque(v for v in range(n) if indeg[v] == 0)
        order = []
        while ready:
            v = ready.popleft()
            order.append(v)
            for w in out_lists[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    ready.append(w)
        self._order = tuple(order)

    @property
    def n(self) -> int:
        return len(self.labels)


def build_graph_reference(edge_labels, nodes=(), sources=None) -> CGraphReference:
    """``build_graph`` interning one label at a time, in first-seen order."""
    labels: list[str] = []
    index: dict[str, int] = {}
    for lab in nodes:
        if lab not in index:
            index[lab] = len(labels)
            labels.append(lab)
    edges: list[tuple[int, int]] = []
    for u_lab, v_lab in edge_labels:
        for lab in (u_lab, v_lab):
            if lab not in index:
                index[lab] = len(labels)
                labels.append(lab)
        edges.append((index[u_lab], index[v_lab]))
    # the graph and its edges are checked before the source labels
    src = None if sources is None else [index[s] for s in sources if s in index]
    g = CGraphReference(labels, edges, src)
    missing = [s for s in sources or () if s not in index]
    if missing:
        raise GraphError(f"source label {missing[0]!r} is not a node")
    return g


def indexed_graph(labels, edges, sources=None) -> CGraph:
    """The graph on ``labels`` with the index edges ``(u, v)`` and source
    ids ``sources``, built by ``build_graph`` from their labels; ``nodes``
    keeps every label at its index."""
    return build_graph(
        [(labels[u], labels[v]) for u, v in edges],
        nodes=labels,
        sources=None if sources is None else [labels[s] for s in sources],
    )


def parse_edge_list_reference(text: str, source_hint=None) -> CGraphReference:
    """``parse_edge_list`` one line, and one label pair, at a time.

    Every line's format is checked first, then that the graph has an edge,
    then the first self-loop or repeated edge (noted, with its line, as the
    lines are read), and only then what building the graph reports.
    """
    edge_labels: list[tuple[str, str]] = []
    fault = None
    if text.startswith("\ufeff"):  # a leading byte-order mark is no label
        text = text[1:]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'u<TAB>v', got {raw!r}")
        u, v = parts
        if fault is None and u == v:
            fault = f"line {lineno}: self-loop at node {u!r}"
        elif fault is None and (u, v) in edge_labels:
            fault = f"line {lineno}: duplicate edge {u!r} -> {v!r}"
        edge_labels.append((u, v))
    if not edge_labels:
        raise ParseError("empty graph: no edges found")
    if fault is not None:
        raise ParseError(fault)
    try:
        return build_graph_reference(
            edge_labels,
            sources=[source_hint] if source_hint is not None else None,
        )
    except GraphError as exc:
        raise ParseError(str(exc)) from None


def reachable_from(g: CGraph, v: int) -> set[int]:
    """All nodes reachable from v along directed paths, v included (BFS)."""
    seen = {v}
    queue = deque([v])
    while queue:
        u = queue.popleft()
        for w in g.out_adj[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def source_scc_members_reference(g: CGraph) -> list[int]:
    """The nodes of source SCCs, ascending, by brute force: r is one iff
    every node that reaches r is also reached from r."""
    reach = [reachable_from(g, v) for v in range(g.n)]
    return [r for r in range(g.n)
            if all(u in reach[r] for u in range(g.n) if r in reach[u])]


def extract_dag_reference(g: CGraph, root: int) -> CGraph:
    """``extract_dag`` by DFS interval classification (Tarjan 1972).

    A DFS from root, children in ascending index order, stamps each node's
    entry and exit on one clock.  An edge (u, v) out of a reached node is a
    back edge when v is an ancestor of u, so u's [enter, exit] interval is
    nested in v's; every other such edge is kept.
    """
    enter, exit_ = [-1] * g.n, [-1] * g.n
    clock = 0

    def visit(v):
        nonlocal clock
        enter[v] = clock
        clock += 1
        for w in sorted(g.out_adj[v]):
            if enter[w] == -1:
                visit(w)
        exit_[v] = clock
        clock += 1

    visit(root)
    keep = [v for v in range(g.n) if enter[v] != -1]
    remap = {v: i for i, v in enumerate(keep)}
    edges = [
        (remap[u], remap[v])
        for u, v in g.edges
        if enter[u] != -1 and not (enter[v] <= enter[u] and exit_[u] <= exit_[v])
    ]
    return indexed_graph([g.labels[v] for v in keep], edges, [remap[root]])


def best_dag_all_roots(g: CGraph) -> CGraph:
    """``extract_dag_reference`` from every root, keeping the smallest (-n, -m, root)."""
    dags = [(extract_dag_reference(g, root), root) for root in range(g.n)]
    return min(dags, key=lambda pair: (-pair[0].n, -pair[0].m, pair[1]))[0]


def phi_reference(g: CGraph, filters) -> int:
    """φ(A): the copies all nodes receive, counted by the reference simulator."""
    return sum(simulate(g, filters)[0])


def exhaustive_best(g: CGraph, k: int) -> tuple[frozenset[int], int]:
    """``oracle`` one ``phi_reference`` at a time: the first set of size <= k with least phi."""
    best, phi_empty = (), phi_reference(g, ())
    best_phi = phi_empty
    for size in range(1, k + 1):
        for candidate in combinations(eligible_nodes(g), size):
            phi = phi_reference(g, candidate)
            if phi < best_phi:
                best, best_phi = candidate, phi
    return frozenset(best), phi_empty - best_phi


def enumerate_paths(g: CGraph, start: int) -> list[tuple[int, ...]]:
    """All nonempty directed paths starting at ``start`` (graph must be acyclic)."""
    paths = []

    def walk(v, acc):
        for w in g.out_adj[v]:
            paths.append(tuple(acc) + (w,))
            walk(w, acc + [w])

    walk(start, [start])
    return paths


def rooted_at_sources(g: CGraph) -> CGraph:
    """``g`` with each source's in-edges cut and a new root, node g.n, feeding every source.

    Each of g's sources then receives exactly one copy, and no path runs into one.
    """
    edges = [(u, v) for u, v in g.edges if v not in g.sources]
    edges += [(g.n, s) for s in sorted(g.sources)]
    return indexed_graph(g.labels + ("__root__",), edges, [g.n])


def count_paths(g: CGraph, x: int, y: int) -> int:
    """Number of distinct directed x -> y paths; 1 for x == y (empty path)."""
    if x == y:
        return 1
    return sum(1 for p in enumerate_paths(g, x) if p[-1] == y)


def count_nonempty_paths_from(g: CGraph, v: int) -> int:
    return len(enumerate_paths(g, v))


def random_digraph(n: int, p: float, seed: int) -> CGraph:
    """Plain random directed graph, cycles allowed, no designated source."""
    rng = random.Random(seed)
    names = [f"d{i}" for i in range(n)]
    edges = [
        (names[u], names[v])
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < p
    ]
    return build_graph(edges, nodes=names)


def random_dag(n: int, edge_prob: float, seed: int) -> CGraph:
    """Random DAG on n nodes: forward edges over a random permutation.

    A super source is attached to every in-degree-zero node, so the result
    always has a single source and every node is reachable from it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError("edge_prob must be in [0, 1]")
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    names = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                edges.append((names[perm[i]], names[perm[j]]))
    g = build_graph(edges, nodes=names)
    return add_super_source(g)


def random_ctree(n: int, source_edge_prob: float, seed: int) -> CGraph:
    """Random communication tree: a recursive tree plus random source edges.

    Node i attaches below a uniformly random earlier node; each node
    independently gains a direct source edge with the given probability
    (the tree root always has one, keeping the graph reachable).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(seed)
    names = [f"t{i}" for i in range(n)]
    edges = [("s", names[0])]
    edges += [(names[rng.randrange(i)], names[i]) for i in range(1, n)]
    edges += [("s", names[i]) for i in range(1, n) if rng.random() < source_edge_prob]
    return build_graph(edges, nodes=["s"] + names, sources=["s"])


def layered_analytic_mean(cfg) -> float:
    """Expected edge count of the layered generator, in closed form.

    Per ordered node pair the chance of a gap-d edge is (L-d)/L^2 * p(d);
    the source contributes one edge per expected level-0 node.
    """
    from flowfilter.synth import layered_edge_probability

    total_nodes = cfg.levels * cfg.expected_width
    per_pair = sum(
        (cfg.levels - d) * layered_edge_probability(cfg, d)
        for d in range(1, cfg.levels)
    ) / cfg.levels**2
    return per_pair * total_nodes * (total_nodes - 1) + total_nodes / cfg.levels


def _poisson(rng: random.Random, lam: float) -> int:
    # Knuth's inverse-CDF walk; fine for lam up to a few hundred
    import math

    term = math.exp(-lam)
    cum = term
    k = 0
    u = rng.random()
    while u > cum:
        k += 1
        term *= lam / k
        cum += term
    return k


def layered_sigma(cfg, node_count_noise: bool, draws: int = 4000, seed: int = 1) -> float:
    """Std dev of the layered generator's edge count, by total variance.

    Conditional on the level occupancies the edges are independent
    Bernoullis, so the conditional mean and variance are exact; the outer
    expectation runs over sampled occupancies.  With ``node_count_noise``
    the occupancies are independent Poissons (total node count varies, as
    in the corpus realizations this generator mimics); without it they are
    multinomial with the node count pinned.
    """
    import statistics

    from flowfilter.synth import layered_edge_probability

    rng = random.Random(seed)
    levels, width = cfg.levels, cfg.expected_width
    n = levels * width
    p = [0.0] + [layered_edge_probability(cfg, d) for d in range(1, levels)]
    cond_means, cond_vars = [], []
    for _ in range(draws):
        if node_count_noise:
            counts = [_poisson(rng, width) for _ in range(levels)]
        else:
            counts = [0] * levels
            for _ in range(n):
                counts[rng.randrange(levels)] += 1
        mean = float(counts[0])
        var = 0.0
        for i in range(levels):
            for j in range(i + 1, levels):
                pij = p[j - i]
                mean += counts[i] * counts[j] * pij
                var += counts[i] * counts[j] * pij * (1.0 - pij)
        cond_means.append(mean)
        cond_vars.append(var)
    return (statistics.fmean(cond_vars) + statistics.pvariance(cond_means)) ** 0.5


def layered_graph_reference(cfg) -> CGraph:
    """The layered generator as a scan over every ordered node pair.

    Draws the levels, then visits (v, u) v-major, u ascending, and draws
    once for each pair whose gap level[u] - level[v] is positive; an edge
    runs v -> u when the draw falls below that gap's probability.
    """
    from flowfilter.synth import layered_edge_probability

    rng = random.Random(cfg.seed)
    n = cfg.levels * cfg.expected_width
    level = [rng.randrange(cfg.levels) for _ in range(n)]

    names = [f"n{i}" for i in range(n)]
    edges: list[tuple[str, str]] = []
    for v in range(n):
        for u in range(n):
            gap = level[u] - level[v]
            if gap <= 0:
                continue
            if rng.random() < layered_edge_probability(cfg, gap):
                edges.append((names[v], names[u]))
    source_edges = [("s", names[v]) for v in range(n) if level[v] == 0]
    return build_graph(source_edges + edges, nodes=["s"] + names, sources=["s"])


def draws_below(rng: random.Random, probs) -> list[int]:
    """Each v whose draw, the v-th ``rng.random()``, is below ``probs[v]``."""
    return [v for v, p in enumerate(probs) if rng.random() < p]


def is_acyclic_edge_set(n: int, edges: set[tuple[int, int]]) -> bool:
    """Kahn's check over a raw edge set on nodes 0..n-1."""
    indeg = [0] * n
    out: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        indeg[v] += 1
        out[u].append(v)
    ready = [v for v in range(n) if indeg[v] == 0]
    seen = 0
    while ready:
        v = ready.pop()
        seen += 1
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return seen == n


def as_ctree_reference(g: CGraph) -> tuple[tuple, tuple]:
    """``placement.as_ctree`` finding each node's tree parent among its tails.

    Nodes are visited in index order; each but the source must have at most
    one non-source parent, and a node without one must be fed by the
    source, which then is its tree parent.
    """
    source = single_source(g)
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


def _join_reference(tables: list, rows: int, k: int) -> tuple[list, list]:
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


def _split_reference(children: tuple, picks: list, out: int, budget: int):
    """Yield (child, budget) pairs as ``_join_reference`` chose them."""
    for c, pick in zip(children, picks):
        j = pick[out][budget]
        budget -= j
        yield c, j
    if len(children) >= 2:
        yield children[-1], budget


def tree_dp_reference(g: CGraph, k: int) -> frozenset[int]:
    """``tree_dp`` joining every node's children over full k + 1 budgets.

    Leaves and single children get the same O(rows * k^2) join as any
    other node, against an all-zero table, and every join stores its
    argmin picks for the traceback.  Every table is k + 1 budgets wide.
    ``se[v]`` is True for every node a source edge feeds, roots included.
    """
    children, _ = as_ctree_reference(g)
    source = next(iter(g.sources))
    n, roots = g.n, children[source]
    se = [source in parents for parents in g.in_adj]
    top = [0] * n
    order = []
    stack = list(roots)
    while stack:
        v = stack.pop()
        order.append(v)
        for c in children[v]:
            top[c] = top[v] + se[v]
        stack.extend(children[v])

    best: list = [None] * n
    joined: list = [None] * n
    for v in reversed(order):
        kids = children[v]
        joined[v] = _join_reference([best[c] for c in kids], top[v] + se[v] + 1, k)
        table = joined[v][0]
        best[v] = []
        for recv in range(se[v], top[v] + se[v] + 1):
            keep, cut = table[recv], table[min(recv, 1)]
            best[v].append(
                [recv + keep[0]]
                + [recv + min(keep[b], cut[b - 1]) for b in range(1, k + 1)]
            )

    _, root_picks = _join_reference([best[r] for r in roots], 1, k)
    chosen: set[int] = set()
    stack = [(r, 0, j) for r, j in _split_reference(roots, root_picks, 0, k)]
    while stack:
        v, inflow, budget = stack.pop()
        table, picks = joined[v]
        out = inflow + se[v]
        if budget and table[min(out, 1)][budget - 1] < table[out][budget]:
            chosen.add(v)
            out, budget = min(out, 1), budget - 1
        stack.extend(
            (c, out, j) for c, j in _split_reference(children[v], picks, out, budget)
        )
    return frozenset(chosen)


def greedy_all_reference(g: CGraph, k: int) -> frozenset[int]:
    """greedy-all as k rounds run for this k alone, one impact table per round."""
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


def greedy_l_reference(g: CGraph, k: int) -> frozenset[int]:
    """greedy-l as k rounds run for this k alone, one prefix table per round."""
    members: set[int] = set()
    for _ in range(k):
        prefix = compute_prefix(g, members)
        best, best_score = None, -1
        for v in range(g.n):
            if v in g.sources or v in members:
                continue
            score = prefix[v] * len(g.out_adj[v])
            if score > best_score:
                best, best_score = v, score
        if best is None:
            break
        members.add(best)
    return frozenset(members)
