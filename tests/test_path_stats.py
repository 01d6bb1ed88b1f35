import gc
import random
import tracemalloc

import pytest

from _oracles import (
    count_nonempty_paths_from,
    enumerate_paths,
    indexed_graph,
    phi_reference,
    random_dag,
    rooted_at_sources,
)
from fixtures import g_diamond, g_diamond_chain, g_fanin, g_degree_trap
from flowfilter.graph import (
    CGraph,
    add_super_source,
    build_graph,
    parse_edge_list,
    serialize_edge_list,
)
from flowfilter.harness import max_objective
from flowfilter.path_stats import baseline, compute_prefix, compute_stats, impact_table
from flowfilter.placement import eligible_nodes, greedy_all
from flowfilter.propagation import gains, objective_f, simulate


def test_fanin_prefix_matches_received_counts():
    g = g_fanin()
    stats = compute_stats(g, ())
    got = {g.labels[v]: p for v, p in enumerate(stats[0])}
    assert got == {"s": 1, "x": 1, "y": 1, "z1": 1, "z2": 2, "z3": 1, "w": 4}


def test_fanin_suffix_against_path_enumeration():
    g = g_fanin()
    stats = compute_stats(g, ())
    for v in range(g.n):
        assert stats[1][v] == count_nonempty_paths_from(g, v), g.labels[v]
    # frozen expectations from the enumeration: x has 4 nonempty paths
    # (x->z1, x->z2, x->z1->w, x->z2->w)
    assert stats[1][g.index("x")] == 4
    assert stats[1][g.index("z2")] == 1
    assert stats[1][g.index("w")] == 0


def test_fanin_prefix_with_filter_reset():
    g = g_fanin()
    stats = compute_stats(g, {g.index("z2")})
    assert stats[0][g.index("w")] == 3


def test_compute_prefix_agrees_with_full_stats():
    g = g_degree_trap()
    for filters in [(), {g.index("A")}, {g.index("B"), g.index("u1")}]:
        assert compute_prefix(g, filters) == compute_stats(g, filters)[0]


def _with_extra_sources(seed: int) -> tuple[CGraph, set[int]]:
    # a random DAG where up to two more nodes, which may have in-edges, are
    # sources too, and a random filter set
    rng = random.Random(seed)
    g = random_dag(rng.randint(2, 10), rng.uniform(0.2, 0.9), seed + 300)
    sources = set(g.sources) | set(rng.sample(range(g.n), rng.randint(0, 2)))
    filters = set(rng.sample(range(g.n), rng.randint(0, g.n)))
    return indexed_graph(g.labels, g.edges, sources), filters


def test_prefix_with_extra_sources_matches_simulator():
    # every source emits one copy and nothing flows into a source: the same
    # as cutting each source's in-edges and feeding it from one new root
    for seed in range(300):
        g, filters = _with_extra_sources(seed)
        want = simulate(rooted_at_sources(g), filters)[0][: g.n]
        assert compute_prefix(g, filters) == want, (seed, filters)
        assert compute_stats(g, filters)[0] == want, (seed, filters)


@pytest.mark.parametrize("seed", range(100))
def test_suffix_counts_paths_stopped_by_filters_and_sources(seed):
    # suffix(v): nonempty paths from v that enter no source and pass no
    # filter before their last node; extra sources may have in-edges
    g, filters = _with_extra_sources(seed)
    stats = compute_stats(g, filters)
    for v in range(g.n):
        expected = sum(
            1
            for path in enumerate_paths(g, v)
            if not g.sources & set(path[1:])
            and not filters & set(path[1:-1])
        )
        assert stats[1][v] == expected, (v, filters, g.sources)


def test_impact_examples():
    g1, g2 = g_fanin(), g_degree_trap()
    assert impact_table(g1, ())[g1.index("z2")] == 1
    assert impact_table(g1, ())[g1.index("x")] == 0
    assert impact_table(g2, ())[g2.index("A")] == 2


def test_impact_table_fanin_chain_diamond():
    g1 = g_fanin()
    table = impact_table(g1, ())
    assert isinstance(table, list) and len(table) == g1.n
    assert table[g1.index("z2")] == 1
    assert all(c == 0 for v, c in enumerate(table) if v != g1.index("z2"))

    chain = build_graph([("s", "a"), ("a", "b"), ("b", "c")])
    assert impact_table(chain, ()) == [0] * chain.n

    gd = g_diamond()
    table = impact_table(gd, ())
    assert table[gd.index("c")] == 1
    assert all(c == 0 for v, c in enumerate(table) if v != gd.index("c"))


def test_impact_of_source_and_filters_is_zero():
    g = g_fanin()
    table = impact_table(g, {g.index("z2")})
    assert table[g.index("s")] == 0
    assert table[g.index("z2")] == 0


def test_impact_zero_for_unreachable_node():
    g = build_graph([("s", "b"), ("a", "b"), ("b", "c")], sources=["s"])
    a = g.index("a")
    assert impact_table(g, ())[a] == 0
    assert impact_table(g, ())[a] == objective_f(g, {a}) - objective_f(g, ())


@pytest.mark.parametrize("seed", range(25))
def test_impact_equals_objective_difference(seed):
    # the module's master property, against the simulator
    rng = random.Random(seed)
    g = random_dag(rng.randint(2, 12), rng.uniform(0.1, 0.9), seed + 400)
    elig = eligible_nodes(g)
    for _ in range(3):
        members = frozenset(rng.sample(elig, rng.randint(0, max(0, len(elig) - 1))))
        table = impact_table(g, members)
        assert len(table) == g.n
        base = objective_f(g, members)
        for v in elig:
            if v in members:
                continue
            assert table[v] == objective_f(g, members | {v}) - base


@pytest.mark.parametrize("seed", range(10))
def test_prefix_sums_match_phi(seed):
    rng = random.Random(seed)
    g = random_dag(rng.randint(2, 10), rng.uniform(0.2, 0.8), seed + 500)
    elig = eligible_nodes(g)
    members = frozenset(rng.sample(elig, rng.randint(0, len(elig))))
    stats = compute_stats(g, members)
    total = sum(stats[0][v] for v in range(g.n) if v not in g.sources)
    assert total == phi_reference(g, members)
    # and prefix agrees with the simulator node by node
    assert list(stats[0][v] for v in elig) == [
        simulate(g, members)[0][v] for v in elig
    ]


def test_no_filter_lists_are_handed_out_fresh():
    # the no-filter lists are kept on the graph; mutating a result must not
    # reach them
    g = g_fanin()
    reads = [
        lambda: compute_prefix(g, ()),
        lambda: compute_stats(g, ())[0],
        lambda: compute_stats(g, ())[1],
        lambda: impact_table(g, ()),
    ]
    want = [read() for read in reads]
    assert any(want[3])  # z2's impact, so a zeroed table would show
    for read in reads:
        got = read()
        got[:] = [-1] * len(got)
        got.append(-1)
        assert [read() for read in reads] == want
    assert baseline(g) == (10, 1)


def _simulated_baseline(g: CGraph) -> tuple[int, int]:
    """``baseline`` from the reference simulator: φ(∅) and φ(∅) − φ(V)."""
    phi_empty = phi_reference(g, ())
    return phi_empty, phi_empty - phi_reference(g, eligible_nodes(g))


def _hinted_dag(seed: int) -> CGraph:
    # a random DAG whose one source is a hinted node, which may have
    # in-edges: every node upstream of it, and every other in-degree-0
    # node it does not reach, is unreached
    rng = random.Random(seed)
    n = rng.randint(2, 12)
    order = rng.sample(range(n), n)
    names = [f"v{i}" for i in range(n)]
    edges = [
        (names[order[i]], names[order[j]])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < rng.uniform(0.1, 0.7)
    ]
    return build_graph(edges, nodes=names, sources=[rng.choice(names)])


def test_baseline_matches_simulate_on_random_dags():
    # F(V) is read off the no-filter prefix as phi(empty) minus the
    # out-edges of reached nodes; the simulator scores V by propagation
    graphs = []
    for seed in range(160):
        rng = random.Random(seed + 7000)
        graphs.append(random_dag(rng.randint(1, 14), rng.uniform(0.05, 0.9), seed + 7000))
        graphs.append(_hinted_dag(seed + 8000))
    for seed in range(20):  # several roots joined under one super source
        rng = random.Random(seed + 9000)
        names = [f"v{i}" for i in range(rng.randint(3, 10))]
        edges = [(u, v) for i, u in enumerate(names) for v in names[i + 1:] if rng.random() < 0.3]
        graphs.append(add_super_source(build_graph(edges, nodes=names)))
    graphs.append(g_diamond_chain(70))
    unreached = 0
    for i, g in enumerate(graphs):
        prefix = compute_prefix(g, ())
        unreached += any(not p and not g.in_adj[v] for v, p in enumerate(prefix))
        want = _simulated_baseline(g)
        assert baseline(g) == want, i
        assert max_objective(g) == want[1] == next(gains(g, [eligible_nodes(g)])), i
    assert len(graphs) >= 300
    assert unreached >= 50  # the hints leave unreached in-degree-0 nodes
    assert baseline(g_diamond_chain(70))[0] > 2**70


def test_scoring_many_graphs_keeps_none_alive():
    # the no-filter lists live on the graph, so they die with it
    text = serialize_edge_list(random_dag(40, 0.3, 12))

    def load_and_score():
        g = parse_edge_list(text)
        greedy_all(g, 3)
        objective_f(g, eligible_nodes(g)[:5])
        max_objective(g)
        return g

    load_and_score()  # warm up every cache the first call fills
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        g = load_and_score()
        one = tracemalloc.get_traced_memory()[0] - start  # one graph, kept
        del g
        gc.collect()
        start = tracemalloc.get_traced_memory()[0]
        for _ in range(50):
            load_and_score()
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert grown < one / 4, (grown, one)
