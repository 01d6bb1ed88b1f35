import random
import sys

import pytest

from _oracles import (
    best_dag_all_roots,
    extract_dag_reference,
    is_acyclic_edge_set,
    random_digraph,
    reachable_from,
    source_scc_members_reference,
)
from flowfilter import dag_extract
from flowfilter.dag_extract import RootNotFoundError, best_dag, dfs_annotate, extract_dag
from fixtures import g_fanin
from flowfilter.graph import CGraph, build_graph, topological_order


def edge_labels(g):
    return {(g.labels[u], g.labels[v]) for u, v in g.edges}


def test_back_edge_dropped_on_chain_cycle():
    g = build_graph([("s", "a"), ("a", "b"), ("b", "c"), ("c", "a")], sources=["s"])
    dag = extract_dag(g, g.index("s"))
    assert edge_labels(dag) == {("s", "a"), ("a", "b"), ("b", "c")}


def test_cross_branch_edge_kept():
    g = build_graph([("s", "a"), ("s", "b"), ("b", "a")], sources=["s"])
    dag = extract_dag(g, g.index("s"))
    assert dag.m == 3
    topological_order(dag)  # acyclic


def test_already_acyclic_graph_kept_whole():
    g = g_fanin()
    dag = extract_dag(g, g.index("s"))
    assert dag.n == 7
    assert edge_labels(dag) == edge_labels(g)


def test_forward_edge_to_descendant_kept():
    # u -> w -> v plus the shortcut u -> v: the shortcut is not a tree edge
    # but cannot close a cycle
    g = build_graph([("s", "u"), ("u", "w"), ("w", "v"), ("u", "v")], sources=["s"])
    dag = extract_dag(g, g.index("s"))
    assert ("u", "v") in edge_labels(dag)
    assert dag.m == 4


def test_discovery_times_deterministic_ascending_index():
    g = g_fanin()
    order, _ = dfs_annotate(g, g.index("s"))
    # children visited in index order: s, x, z1, w, z2, y, z3
    expected = ["s", "x", "z1", "w", "z2", "y", "z3"]
    assert order == [g.index(lab) for lab in expected]


def test_dfs_annotate_reports_on_stack_edge():
    g = build_graph([("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])
    _, back = dfs_annotate(g, g.index("a"))
    assert back == [(g.index("c"), g.index("a"))]


def test_ring_of_100k_nodes_drops_only_closing_edge():
    n = 100_000
    limit = sys.getrecursionlimit()
    g = build_graph([(f"r{i}", f"r{(i + 1) % n}") for i in range(n)])
    dag = extract_dag(g, 0)
    assert (dag.n, dag.m) == (n, n - 1)
    assert dag.edges == g.edges[:-1]  # (n - 1, 0) closes the ring
    assert sys.getrecursionlimit() == limit


def test_root_not_found():
    with pytest.raises(RootNotFoundError):
        extract_dag(g_fanin(), 99)


@pytest.mark.parametrize("root", [-1, 7])
def test_a_root_just_outside_the_nodes_is_not_found(root):
    g = g_fanin()  # nodes 0..6: -1 would index from the end, 7 past it
    with pytest.raises(RootNotFoundError):
        dfs_annotate(g, root)


@pytest.mark.parametrize("seed", range(300))
def test_extract_dag_matches_reference_from_every_root(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 40)
    g = random_digraph(n, rng.uniform(0.5, 4.0) / n, seed + 5000)
    for root in range(g.n):
        got, want = extract_dag(g, root), extract_dag_reference(g, root)
        assert got.labels == want.labels
        assert got.edges == want.edges
        assert got.sources == want.sources


def _seeded_digraph(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 10)
    return random_digraph(n, rng.uniform(0.1, 0.6), seed + 900), rng


@pytest.mark.parametrize("seed", range(30))
def test_random_digraph_invariants(seed):
    g, rng = _seeded_digraph(seed)
    root = rng.randrange(g.n)
    dag = extract_dag(g, root)

    topological_order(dag)  # acyclic
    keep = {g.labels[v] for v in reachable_from(g, root)}
    assert set(dag.labels) == keep  # node retention
    assert len(reachable_from(dag, next(iter(dag.sources)))) == dag.n  # connected

    # maximality: every omitted input edge between retained nodes closes a cycle
    out_edges = edge_labels(dag)
    for u, v in g.edges:
        lu, lv = g.labels[u], g.labels[v]
        if lu in keep and lv in keep and (lu, lv) not in out_edges:
            with_extra = {e for e in dag.edges} | {(dag.index(lu), dag.index(lv))}
            assert not is_acyclic_edge_set(dag.n, with_extra)


def test_best_dag_two_node_cycle():
    g = build_graph([("a", "b"), ("b", "a")])
    dag = best_dag(g)
    assert (dag.n, dag.m) == (2, 1)
    assert dag.labels[next(iter(dag.sources))] == "a"  # tie-break: smallest root


def test_best_dag_identity_on_dag():
    g = g_fanin()
    dag = best_dag(g)
    assert dag.n == g.n
    assert edge_labels(dag) == edge_labels(g)
    assert dag.labels[next(iter(dag.sources))] == "s"


@pytest.mark.parametrize("seed", range(8))
def test_best_dag_spans_strongly_connected_graphs(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 8)
    names = [f"c{i}" for i in range(n)]
    ring = [(names[i], names[(i + 1) % n]) for i in range(n)]
    extra = [
        (names[u], names[v])
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < 0.3 and (names[u], names[v]) not in ring
    ]
    g = build_graph(ring + extra, nodes=names)
    dag = best_dag(g)
    assert dag.n == n  # every node reachable from any root
    topological_order(dag)


def _giant_scc_digraph(seed):
    """A ring through most of n = 60..120 nodes plus random chords, so the
    ring is one giant source SCC; the other nodes hang off it."""
    rng = random.Random(seed)
    n = rng.randint(60, 120)
    ring = rng.sample(range(n), n - n // 10)
    edges = {(ring[i - 1], ring[i]) for i in range(len(ring))}
    for _ in range(rng.randint(n // 2, 2 * n)):
        edges.add(tuple(rng.sample(ring, 2)))
    reached = list(ring)
    for v in sorted(set(range(n)) - set(ring)):
        edges.add((rng.choice(reached), v))
        reached.append(v)
    edges = sorted(edges)
    rng.shuffle(edges)
    names = [f"g{i}" for i in range(n)]
    return build_graph([(names[u], names[v]) for u, v in edges], nodes=names)


def _sparse_digraph(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 40)
    return random_digraph(n, rng.uniform(0.2, 3.0) / n, seed + 7000)


@pytest.mark.parametrize(
    "g",
    [_sparse_digraph(seed) for seed in range(300)]
    + [_giant_scc_digraph(seed) for seed in range(10)],
)
def test_source_scc_members_match_reference(g):
    assert dag_extract._source_scc_members(g.out_adj) == source_scc_members_reference(g)


def _fed_giant_scc_digraph(seed):
    """Three in-degree-0 nodes feeding a giant SCC: three source SCCs."""
    g = _giant_scc_digraph(seed)
    feeders = [(f"f{i}", g.labels[(7 * i + seed) % g.n]) for i in range(3)]
    return build_graph(feeders + [(g.labels[u], g.labels[v]) for u, v in g.edges])


def _two_cycle_copies():
    """Two disjoint copies of one cycle: the tie goes to the smaller root."""
    edges = [("a1", "a2"), ("a2", "a3"), ("a3", "a1"), ("a2", "a4")]
    copy = [(u.replace("a", "b"), v.replace("a", "b")) for u, v in edges]
    return build_graph(copy + edges)


def _cycle_fed_by_a_chain():
    chain = [(f"h{i}", f"h{i + 1}") for i in range(5)]
    cycle = [("h5", "k1"), ("k1", "k2"), ("k2", "h5"), ("k1", "h3")]
    return build_graph(cycle + chain)


@pytest.mark.parametrize(
    "g",
    [_seeded_digraph(seed)[0] for seed in range(30)]
    + [_giant_scc_digraph(seed) for seed in range(10)]
    + [_fed_giant_scc_digraph(seed) for seed in range(5)]
    + [_two_cycle_copies(), _cycle_fed_by_a_chain()]
    + [
        random_digraph(60, 0.03, 1),
        random_digraph(80, 0.02, 2),
        random_digraph(100, 0.015, 3),
        random_digraph(120, 0.012, 4),
        random_digraph(120, 0.05, 5),
    ],
)
def test_best_dag_matches_all_roots_oracle(g):
    dag, want = best_dag(g), best_dag_all_roots(g)
    assert dag.labels == want.labels
    assert dag.edges == want.edges
    assert dag.sources == want.sources


def test_best_dag_builds_one_graph(monkeypatch):
    g = random_digraph(40, 0.08, 7)
    built = []

    # every CGraph, whichever constructor made it, is linked up once
    def counting_link(self, *args):
        built.append(args)
        return real(self, *args)

    real = CGraph._link
    monkeypatch.setattr(CGraph, "_link", counting_link)
    best_dag(g)
    assert len(built) == 1


def test_best_dag_ranks_only_the_source_scc_root(monkeypatch):
    calls = []

    def counting_dfs(children, root):
        calls.append(root)
        return real(children, root)

    real = dag_extract._dfs
    monkeypatch.setattr(dag_extract, "_dfs", counting_dfs)
    # one in-degree-0 node "s" feeding a ring with chords: 30 nodes, one
    # source SCC {s}, so one ranking DFS plus the one extract_dag runs
    ring = [(f"r{i}", f"r{(i + 1) % 29}") for i in range(29)]
    chords = [(f"r{i}", f"r{(i + 10) % 29}") for i in range(0, 29, 4)]
    g = build_graph(ring + chords + [("s", "r7")])
    assert [v for v in range(g.n) if not g.in_adj[v]] == [g.index("s")]
    dag = best_dag(g)
    assert calls == [g.index("s")] * 2
    assert dag.n == g.n


def test_long_path_closing_into_its_middle():
    # a 10^5-node path whose last node has an edge back to its middle: one
    # source SCC {p0}, so one ranking DFS where every root would take 10^5
    n = 100_000
    limit = sys.getrecursionlimit()
    edges = [(f"p{i}", f"p{i + 1}") for i in range(n - 1)] + [(f"p{n - 1}", f"p{n // 2}")]
    g = build_graph(edges)
    dag = best_dag(g)
    assert (dag.n, dag.m) == (n, n - 1)
    assert dag.edges == g.edges[:-1]
    assert dag.labels[next(iter(dag.sources))] == "p0"
    assert sys.getrecursionlimit() == limit
