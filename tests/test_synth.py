import hashlib
import random
import statistics

import pytest

from _oracles import (
    count_paths,
    layered_analytic_mean,
    layered_graph_reference,
    layered_sigma,
    random_ctree,
    random_dag,
)
from flowfilter.graph import serialize_edge_list, topological_order
from flowfilter.path_stats import compute_stats
from flowfilter.placement import as_ctree, eligible_nodes
from flowfilter.propagation import objective_f
from flowfilter.synth import LayeredConfig, layered_graph


# --- layered generator ---------------------------------------------------------


def test_layered_node_count_and_source():
    g = layered_graph(LayeredConfig(4, 10, 1.0, 4.0, 3))
    assert g.n == 41
    assert {g.labels[s] for s in g.sources} == {"s"}


@pytest.mark.parametrize("seed", range(5))
def test_layered_always_acyclic(seed):
    g = layered_graph(LayeredConfig(4, 10, 2.0, 3.0, seed))
    topological_order(g)


def test_layered_reproducible_from_seed():
    cfg = LayeredConfig(4, 10, 1.0, 4.0, 9)
    a, b = layered_graph(cfg), layered_graph(cfg)
    assert serialize_edge_list(a) == serialize_edge_list(b)
    c = layered_graph(LayeredConfig(4, 10, 1.0, 4.0, 10))
    assert serialize_edge_list(a) != serialize_edge_list(c)


def test_layered_degenerate_two_levels_one_node_each():
    # p = 1/1**gap = 1 everywhere: the realized structure is pinned by the
    # level assignment alone
    g = layered_graph(LayeredConfig(2, 1, 1.0, 1.0, 0))
    assert g.n == 3  # 2 nodes + source
    s = g.index("s")
    level0 = set(g.out_adj[s])
    level1 = {v for v in range(g.n) if v != s and v not in level0}
    assert g.m == len(level0) + len(level0) * len(level1)


def test_layered_config_validation():
    with pytest.raises(ValueError):
        LayeredConfig(1, 10, 1.0, 4.0, 0)
    with pytest.raises(ValueError):
        LayeredConfig(5, 0, 1.0, 4.0, 0)
    with pytest.raises(ValueError):
        LayeredConfig(5, 10, 0.0, 4.0, 0)
    for bad in (float("nan"), float("inf"), -1.0, 10**400):
        with pytest.raises(ValueError):
            LayeredConfig(5, 10, bad, 4.0, 0)
        with pytest.raises(ValueError):
            LayeredConfig(5, 10, 1.0, bad, 0)


def test_layered_graph_outputs_pinned():
    # The seed -> graph mapping is a contract: benchmark digests, README
    # examples and replayed manifests all rest on it.  The grid holds the
    # benchmark's 10x100 and 10x60 seed-11 graphs and README's seed-7 one.
    grid = [
        (10, 100, 1.0, 4.0, 11),
        (10, 60, 1.0, 4.0, 11),
        (10, 100, 1.0, 4.0, 7),
        (2, 1, 1.0, 1.0, 0),
        (3, 5, 1.0, 2.0, 0),
        (4, 10, 3.0, 1.5, 5),
        (6, 20, 0.5, 2.0, 3),
        (12, 8, 1.0, 4.0, 2),
    ]
    h = hashlib.sha256()
    for cfg in grid:
        h.update(serialize_edge_list(layered_graph(LayeredConfig(*cfg))).encode())
    assert h.hexdigest() == (
        "77b4a889e63ea844d6baad83e766ebdfc87cfb294ae730c15a281c092d5e82f5"
    )


def test_layered_graph_matches_reference():
    # (3, 1.5) puts p >= 1 on gaps 1 and 2, where every draw keeps its edge.
    # Every fourth config is up to 40 wide; the rest stay narrow, because the
    # reference's pair scan is quadratic in the node count.
    params = [(1.0, 4.0), (3.0, 1.5), (0.5, 2.0)]
    for seed in range(300):
        rng = random.Random(seed)
        x, y = params[seed % 3]
        width = rng.randint(1, 40 if seed % 4 == 0 else 10)
        cfg = LayeredConfig(rng.randint(2, 12), width, x, y, seed)
        got, want = layered_graph(cfg), layered_graph_reference(cfg)
        assert got.labels == want.labels
        assert got.edges == want.edges
        assert got.out_adj == want.out_adj
        assert got.in_adj == want.in_adj
        assert got.sources == want.sources
        assert topological_order(got) == topological_order(want)


@pytest.mark.parametrize("seed", range(3))
def test_layered_extreme_y(seed):
    # y**2 overflows at 1e200 (p = 0) and underflows to 0.0 at 1e-300 (p = 1)
    levels, width = 3, 2
    rng = random.Random(seed)
    level = [rng.randrange(levels) for _ in range(levels * width)]
    source_edges = {(0, v + 1) for v, lv in enumerate(level) if lv == 0}

    for huge in (1e200, 10**200):  # an int y is taken as a float
        g = layered_graph(LayeredConfig(levels, width, 1.0, huge, seed))
        assert g.n == levels * width + 1
        assert set(g.edges) == source_edges  # p = 1e-200 at gap 1, 0 at gap 2

    g = layered_graph(LayeredConfig(levels, width, 1.0, 1e-300, seed))
    assert g.n == levels * width + 1
    assert set(g.edges) == source_edges | {
        (v + 1, u + 1)
        for v, lv in enumerate(level)
        for u, lu in enumerate(level)
        if lu > lv
    }


def test_layered_small_config_calibration():
    # cheap version of the full calibration: 40 seeds on a 3x5 config
    cfg = LayeredConfig(3, 5, 1.0, 2.0, 0)
    counts = [
        layered_graph(LayeredConfig(3, 5, 1.0, 2.0, seed)).m for seed in range(40)
    ]
    mean = statistics.fmean(counts)
    mu = layered_analytic_mean(cfg)
    sigma = layered_sigma(cfg, node_count_noise=False, draws=2000)
    assert abs(mean - mu) <= 3 * sigma / 40**0.5


# --- random DAGs ----------------------------------------------------------------


def test_random_dag_no_edges_is_star():
    g = random_dag(5, 0.0, 4)
    assert len(g.sources) == 1
    src = next(iter(g.sources))
    assert set(g.out_adj[src]) == {v for v in range(g.n) if v != src}
    assert objective_f(g, eligible_nodes(g)) == 0  # nothing to remove


def test_random_dag_complete_path_counts():
    g = random_dag(5, 1.0, 123)
    stats = compute_stats(g, ())
    src = next(iter(g.sources))
    assert max(stats[0]) == 2 ** (5 - 2)
    for v in range(g.n):
        if v != src:
            assert stats[0][v] == count_paths(g, src, v)


@pytest.mark.parametrize("seed", range(6))
def test_random_dag_acyclic_single_source(seed):
    g = random_dag(9, 0.5, seed)
    topological_order(g)
    assert len(g.sources) == 1


def test_random_dag_reproducible():
    assert serialize_edge_list(random_dag(8, 0.4, 7)) == serialize_edge_list(
        random_dag(8, 0.4, 7)
    )


def test_random_dag_validation():
    with pytest.raises(ValueError):
        random_dag(0, 0.5, 1)
    with pytest.raises(ValueError):
        random_dag(5, 1.5, 1)


# --- random c-trees --------------------------------------------------------------


def test_random_ctree_single_node():
    g = random_ctree(1, 0.5, 0)
    assert g.n == 2  # source + the node
    assert g.m == 1


def test_random_ctree_no_extra_source_edges_means_no_redundancy():
    g = random_ctree(10, 0.0, 3)
    assert all(len(g.in_adj[v]) == 1 for v in range(g.n) if v not in g.sources)
    assert objective_f(g, eligible_nodes(g)) == 0


def test_random_ctree_reproducible():
    a = random_ctree(9, 0.5, 21)
    b = random_ctree(9, 0.5, 21)
    assert a.edges == b.edges


def test_random_ctree_certified():
    # the generator's output certifies; spot-check the annotations
    g = random_ctree(12, 0.6, 5)
    children, extra = as_ctree(g)
    source = next(iter(g.sources))
    for p, kids in enumerate(children):
        assert all(c in g.out_adj[p] for c in kids)
    for r in children[source]:
        assert source in g.in_adj[r] and not extra[r]
