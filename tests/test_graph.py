import hashlib
import random

import pytest

from _oracles import random_digraph, reachable_from

from fixtures import FANIN_TSV, DEGREE_TRAP_TSV, g_fanin, g_degree_trap
from flowfilter.graph import (
    CycleError,
    GraphError,
    NoSourceError,
    ParseError,
    add_super_source,
    build_graph,
    parse_edge_list,
    serialize_edge_list,
    topological_order,
)
from flowfilter.synth import random_dag


def test_parse_fan_out_with_hint():
    g = parse_edge_list("s\tx\ns\ty", source_hint="s")
    assert g.n == 3
    assert g.m == 2
    assert g.sources == {g.index("s")}


def test_parse_fanin_text():
    g = parse_edge_list(FANIN_TSV, source_hint="s")
    assert g.n == 7
    assert g.m == 9


def test_parse_detects_sources_without_hint():
    g = parse_edge_list("a\tc\nb\tc")
    assert {g.labels[s] for s in g.sources} == {"a", "b"}


def test_parse_skips_comments_and_blanks():
    g = parse_edge_list("# header\n\na\tb  # trailing\n")
    assert g.m == 1


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("a\ta", "self-loop"),
        ("a\tb\na\tb", "duplicate"),
        ("# nothing\n", "empty"),
        ("a b c", "expected"),
        ("s\ta\nb\tc\ns\ta\n", "^line 3: duplicate edge 's' -> 'a'$"),
        ("# head\ns\ta\n\na\ta  # loop\n", "^line 4: self-loop at node 'a'$"),
        ("a\tb # x\n# c\nb\tc\na\tb\nc\tc\n", "^line 4: duplicate"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_edge_list(text)


def test_parse_unknown_source_hint():
    with pytest.raises(ParseError, match="not a node"):
        parse_edge_list("a\tb", source_hint="zzz")


def test_dense_indices_follow_first_seen_order():
    g = g_fanin()
    assert g.labels == ("s", "x", "y", "z1", "z2", "z3", "w")
    assert g.index("z2") == 4


def test_duplicate_labels_rejected():
    from flowfilter.graph import CGraph

    with pytest.raises(GraphError):
        CGraph(["a", "a"], [])


def test_topological_order_chain():
    g = build_graph([("s", "a"), ("a", "b"), ("b", "c")])
    assert [g.labels[v] for v in topological_order(g)] == ["s", "a", "b", "c"]


def test_topological_order_fanin_positions():
    g = g_fanin()
    order = topological_order(g)
    pos = {v: i for i, v in enumerate(order)}
    assert order[0] == g.index("s")
    assert order[-1] == g.index("w")
    for u, v in g.edges:  # every edge respected, by exhaustive scan
        assert pos[u] < pos[v]


def test_topological_order_deterministic_tie_break():
    g = build_graph([("s", "b"), ("s", "a")])
    # a and b are both ready after s; the smaller dense index (b) wins
    assert [g.labels[v] for v in topological_order(g)] == ["s", "b", "a"]


def test_cycle_detected_with_cycle_report():
    g = build_graph([("a", "b"), ("b", "c"), ("c", "a")])
    with pytest.raises(CycleError) as exc:
        topological_order(g)
    cycle = exc.value.cycle
    assert cycle[0] == cycle[-1]
    assert set(cycle) == {"a", "b", "c"}
    # consecutive entries really are edges
    for u, v in zip(cycle, cycle[1:]):
        assert (g.index(u), g.index(v)) in set(g.edges)


def test_topological_order_is_stored_on_the_graph():
    g = g_fanin()
    order = topological_order(g)
    assert isinstance(order, tuple)
    assert topological_order(g) is order


def test_cycle_reports_pinned():
    # validate prints CycleError.cycle, so which cycle is reported is pinned
    h = hashlib.sha256()
    for seed in range(30):
        rng = random.Random(seed)
        g = random_digraph(rng.randint(2, 30), rng.uniform(0.02, 0.3), seed + 7000)
        try:
            topological_order(g)
            line = "acyclic"
        except CycleError as exc:
            line = " ".join(exc.cycle)
        h.update(line.encode() + b"\n")
    assert h.hexdigest() == (
        "7b09a90f71117cecce7ff88186f2dfb48aa56e04520d2afa799ccf8646e7793b"
    )


def test_add_super_source_two_roots():
    g = build_graph([("r1", "x"), ("r2", "x")])
    g2 = add_super_source(g)
    assert g2.n == g.n + 1
    assert {g2.labels[s] for s in g2.sources} == {"__super__"}
    sup = g2.index("__super__")
    assert {g2.labels[v] for v in g2.out_adj[sup]} == {"r1", "r2"}


def test_add_super_source_idempotent_on_single_source():
    g = g_fanin()
    assert add_super_source(g) is g


def test_add_super_source_no_source():
    g = build_graph([("a", "b"), ("b", "a")])
    with pytest.raises(NoSourceError):
        add_super_source(g)


@pytest.mark.parametrize("seed", range(10))
def test_add_super_source_preserves_reachability(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 10)
    names = [f"v{i}" for i in range(n)]
    edges = [
        (names[u], names[v])
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < 0.3
    ]
    if not edges:
        edges = [(names[0], names[1])]
    g = build_graph(edges, nodes=names)
    g2 = add_super_source(g)
    for v in range(g.n):
        before = {g.labels[w] for w in reachable_from(g, v)}
        after = {g2.labels[w] for w in reachable_from(g2, g2.index(g.labels[v]))}
        assert before == after


def test_reachable_from_fanin():
    g = g_fanin()
    assert reachable_from(g, g.index("s")) == set(range(7))
    assert reachable_from(g, g.index("w")) == {g.index("w")}


def test_reachable_from_chain_middle():
    g = build_graph([("s", "a"), ("a", "b"), ("b", "c")])
    got = {g.labels[v] for v in reachable_from(g, g.index("b"))}
    assert got == {"b", "c"}


@pytest.mark.parametrize("text", [FANIN_TSV, DEGREE_TRAP_TSV])
def test_round_trip_fixture_texts(text):
    g = parse_edge_list(text)
    g2 = parse_edge_list(serialize_edge_list(g))
    edges = {(g.labels[u], g.labels[v]) for u, v in g.edges}
    edges2 = {(g2.labels[u], g2.labels[v]) for u, v in g2.edges}
    assert edges == edges2


@pytest.mark.parametrize("seed", range(8))
def test_round_trip_random_graphs(seed):
    g = random_dag(8, 0.4, seed)
    g2 = parse_edge_list(serialize_edge_list(g))
    edges = {(g.labels[u], g.labels[v]) for u, v in g.edges}
    edges2 = {(g2.labels[u], g2.labels[v]) for u, v in g2.edges}
    assert edges == edges2
