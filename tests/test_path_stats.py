import random

import pytest

from _oracles import (
    count_nonempty_paths_from,
    enumerate_paths,
    random_dag,
    rooted_at_sources,
)
from fixtures import g_diamond, g_fanin, g_degree_trap
from flowfilter.graph import CGraph, build_graph
from flowfilter.path_stats import compute_prefix, compute_stats, impact_table
from flowfilter.placement import eligible_nodes
from flowfilter.propagation import objective_f, phi_total, simulate


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
    return CGraph(g.labels, g.edges, sources), filters


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
    assert total == phi_total(g, members)
    # and prefix agrees with the simulator node by node
    assert list(stats[0][v] for v in elig) == [
        simulate(g, members)[0][v] for v in elig
    ]
