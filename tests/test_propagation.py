import random

import pytest

from _oracles import count_paths
from flowfilter.fixtures import g_fanin, g_degree_trap
from flowfilter.graph import CGraph, GraphError, build_graph
from flowfilter.placement import eligible_nodes, optimal_unbounded
from flowfilter.propagation import objective_f, phi_total, phi_totals, simulate
from flowfilter.synth import random_dag


def by_label(g, counts):
    return {g.labels[v]: c for v, c in enumerate(counts)}


def test_fanin_received_no_filters():
    g = g_fanin()
    got = by_label(g, simulate(g, ()).received)
    assert got == {"s": 0, "x": 1, "y": 1, "z1": 1, "z2": 2, "z3": 1, "w": 4}


def test_fanin_filter_reduces_forwarding_not_receipt():
    g = g_fanin()
    counts = simulate(g, {g.index("z2")})
    assert counts.received[g.index("w")] == 3
    assert counts.received[g.index("z2")] == 2
    assert counts.forwarded[g.index("z2")] == 1


def test_chain_every_node_receives_one():
    g = build_graph([("s", "a"), ("a", "b"), ("b", "c")])
    for filters in [(), {g.index("a")}, {g.index("a"), g.index("b")}]:
        counts = simulate(g, filters)
        assert all(
            counts.received[v] == 1 for v in range(g.n) if v != g.index("s")
        )


def test_phi_totals():
    g1, g2 = g_fanin(), g_degree_trap()
    assert phi_total(g1, ()) == 10
    assert phi_total(g2, ()) == 14
    assert phi_total(g2, {g2.index("A")}) == 12


def test_objective_examples():
    g1, g2 = g_fanin(), g_degree_trap()
    assert objective_f(g2, {g2.index("A")}) == 2
    assert objective_f(g2, {g2.index("B")}) == 0
    assert objective_f(g1, {g1.index("z2")}) == 1
    assert objective_f(g1, ()) == 0


def test_simulate_accepts_filter_set_objects():
    # a selector's frozenset, a list and a one-shot iterator score alike
    g = g_fanin()
    fs = optimal_unbounded(g)
    assert fs == frozenset({g.index("z2")})
    assert objective_f(g, fs) == objective_f(g, list(fs)) == objective_f(g, iter(fs)) == 1


def test_filter_on_source_is_inert():
    g = g_fanin()
    assert simulate(g, {g.index("s")}) == simulate(g, ())


def test_unreachable_nodes_receive_nothing():
    # a has no in-edges but is not the source; nothing flows through it
    g = build_graph([("s", "b"), ("a", "b")], sources=["s"])
    counts = simulate(g, ())
    assert counts.received[g.index("a")] == 0
    assert counts.received[g.index("b")] == 1
    assert objective_f(g, {g.index("a")}) == 0


def test_simulate_rejects_cycles():
    g = build_graph([("s", "a"), ("a", "b"), ("b", "a")], sources=["s"])
    with pytest.raises(GraphError):
        simulate(g, ())


def test_simulate_rejects_multiple_sources():
    g = build_graph([("a", "c"), ("b", "c")])
    with pytest.raises(GraphError, match="one source"):
        simulate(g, ())


@pytest.mark.parametrize("seed", range(12))
def test_path_identity_on_random_dags(seed):
    # receipts with no filters = distinct source->v path counts
    rng = random.Random(seed)
    g = random_dag(rng.randint(2, 12), rng.uniform(0.1, 0.9), seed + 100)
    source = next(iter(g.sources))
    counts = simulate(g, ())
    for v in range(g.n):
        if v == source:
            continue
        assert counts.received[v] == count_paths(g, source, v)


@pytest.mark.parametrize("seed", range(10))
def test_monotone_submodular_bounded(seed):
    rng = random.Random(seed + 77)
    g = random_dag(rng.randint(3, 10), rng.uniform(0.2, 0.8), seed + 200)
    elig = eligible_nodes(g)
    f_all = objective_f(g, elig)
    for _ in range(10):
        xs = rng.sample(elig, rng.randint(0, len(elig)))
        ys = set(xs) | set(rng.sample(elig, rng.randint(0, len(elig))))
        outside = [v for v in elig if v not in ys]
        # bounds and monotonicity
        fx, fy = objective_f(g, xs), objective_f(g, ys)
        assert 0 <= fx <= fy <= f_all
        # submodularity: marginal gains shrink as the set grows
        if outside:
            v = rng.choice(outside)
            gain_x = objective_f(g, set(xs) | {v}) - fx
            gain_y = objective_f(g, ys | {v}) - fy
            assert gain_x >= gain_y


def _random_sets(rng, g):
    sets = [(), range(g.n), eligible_nodes(g)]  # empty, full with and without sources
    sets += [rng.sample(range(g.n), rng.randint(0, g.n)) for _ in range(rng.randint(0, 6))]
    rng.shuffle(sets)
    return sets[: rng.randint(0, len(sets))]  # sometimes no sets at all


@pytest.mark.parametrize("block", range(10))
def test_phi_totals_matches_phi_total_in_every_lane(block):
    for seed in range(block * 250, (block + 1) * 250):
        rng = random.Random(seed)
        g = random_dag(rng.randint(1, 12), rng.uniform(0.0, 1.0), seed)
        if rng.random() < 0.5:
            # any node as the source: the super source and whatever is not
            # below the new source become unreachable
            g = CGraph(g.labels, g.edges, [rng.randrange(g.n)])
        sets = _random_sets(rng, g)
        assert phi_totals(g, sets, phi_total(g, ())) == [phi_total(g, s) for s in sets]


def test_phi_totals_of_no_sets_is_empty():
    g = g_fanin()
    assert phi_totals(g, [], phi_total(g, ())) == []


def test_phi_totals_past_64_bits():
    # a ladder: every rung doubles the path count, so phi(empty) > 2**80
    edges = [("s", "a0"), ("s", "b0")]
    for i in range(80):
        for u in (f"a{i}", f"b{i}"):
            edges += [(u, f"a{i + 1}"), (u, f"b{i + 1}")]
    g = build_graph(edges)
    phi_empty = phi_total(g, ())
    assert phi_empty > 2**80
    rng = random.Random(5)
    sets = _random_sets(random.Random(6), g) + [
        rng.sample(range(g.n), rng.randint(1, 4)) for _ in range(30)
    ]
    assert phi_totals(g, sets, phi_empty) == [phi_total(g, s) for s in sets]
