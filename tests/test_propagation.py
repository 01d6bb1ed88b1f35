import random
import sys
import tracemalloc

import pytest

from _oracles import count_paths, indexed_graph, phi_reference, random_dag
from fixtures import g_fanin, g_degree_trap
from flowfilter import path_stats
from flowfilter.graph import CycleError, GraphError, build_graph
from flowfilter.path_stats import baseline, compute_prefix, gains, impact_table
from flowfilter.placement import eligible_nodes, optimal_unbounded
from flowfilter.propagation import objective_f, simulate


def by_label(g, counts):
    return {g.labels[v]: c for v, c in enumerate(counts)}


def test_fanin_received_no_filters():
    g = g_fanin()
    got = by_label(g, simulate(g, ())[0])
    assert got == {"s": 0, "x": 1, "y": 1, "z1": 1, "z2": 2, "z3": 1, "w": 4}


def test_fanin_filter_reduces_forwarding_not_receipt():
    g = g_fanin()
    counts = simulate(g, {g.index("z2")})
    assert counts[0][g.index("w")] == 3
    assert counts[0][g.index("z2")] == 2
    assert counts[1][g.index("z2")] == 1


def test_chain_every_node_receives_one():
    g = build_graph([("s", "a"), ("a", "b"), ("b", "c")])
    for filters in [(), {g.index("a")}, {g.index("a"), g.index("b")}]:
        counts = simulate(g, filters)
        assert all(
            counts[0][v] == 1 for v in range(g.n) if v != g.index("s")
        )


def test_phi_totals():
    # the library's phi(empty), and phi(A) as phi(empty) - F(A), against the reference
    g1, g2 = g_fanin(), g_degree_trap()
    a = {g2.index("A")}
    assert baseline(g1)[0] == phi_reference(g1, ()) == 10
    assert baseline(g2)[0] == phi_reference(g2, ()) == 14
    assert baseline(g2)[0] - objective_f(g2, a) == phi_reference(g2, a) == 12


def test_objective_examples():
    g1, g2 = g_fanin(), g_degree_trap()
    assert objective_f(g2, {g2.index("A")}) == 2
    assert objective_f(g2, {g2.index("B")}) == 0
    assert objective_f(g1, {g1.index("z2")}) == 1
    assert objective_f(g1, ()) == 0


@pytest.mark.parametrize("member", ["z2", 7, -1])
def test_scoring_rejects_members_that_are_no_node_index(member):
    # a label, n or -1 matches no node, so a pass would score the set as if
    # the member were absent: F({"z2"}) would read 0 where F({z2}) is 1
    g = g_fanin()
    message = f"filter member {member!r} is not a node index (0 to 6)"
    passes = [objective_f, compute_prefix, impact_table, simulate,
              lambda g, filters: list(gains(g, [(), filters]))]
    for score in passes:
        with pytest.raises(ValueError) as exc:
            score(g, {member})
        assert str(exc.value) == message, score
        with pytest.raises(ValueError):
            score(g, [g.index("z2"), member])


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
    assert counts[0][g.index("a")] == 0
    assert counts[0][g.index("b")] == 1
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
        assert counts[0][v] == count_paths(g, source, v)


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


def _f(g, filters):
    return phi_reference(g, ()) - phi_reference(g, filters)


@pytest.mark.parametrize("block", range(10))
def test_phi_totals_matches_phi_total_in_every_lane(block):
    # gains packs the sets into lanes; each lane's F must match two runs of
    # the reference simulator
    for seed in range(block * 250, (block + 1) * 250):
        rng = random.Random(seed)
        g = random_dag(rng.randint(1, 12), rng.uniform(0.0, 1.0), seed)
        if rng.random() < 0.5:
            # any node as the source: the super source and whatever is not
            # below the new source become unreachable
            g = indexed_graph(g.labels, g.edges, [rng.randrange(g.n)])
        sets = _random_sets(rng, g)
        assert list(gains(g, sets)) == [_f(g, s) for s in sets]


def test_phi_totals_of_no_sets_is_empty():
    assert list(gains(g_fanin(), [])) == []


def test_phi_totals_past_64_bits():
    # a ladder: every rung doubles the path count, so phi(empty) > 2**80
    edges = [("s", "a0"), ("s", "b0")]
    for i in range(80):
        for u in (f"a{i}", f"b{i}"):
            edges += [(u, f"a{i + 1}"), (u, f"b{i + 1}")]
    g = build_graph(edges)
    assert baseline(g)[0] > 2**80
    rng = random.Random(5)
    sets = _random_sets(random.Random(6), g) + [
        rng.sample(range(g.n), rng.randint(1, 4)) for _ in range(30)
    ]
    assert list(gains(g, sets)) == [_f(g, s) for s in sets]


@pytest.mark.parametrize("seed", range(6))
def test_gains_matches_simulate_over_many_passes(seed):
    # 600 sets from a generator span three packed passes; simulate is the
    # independent reference for every F
    rng = random.Random(seed + 31000)
    g = random_dag(rng.randint(2, 14), rng.uniform(0.1, 0.9), seed + 31000)
    sets = [rng.sample(range(g.n), rng.randint(0, g.n)) for _ in range(600)]
    assert list(gains(g, (s for s in sets))) == [_f(g, s) for s in sets]


@pytest.mark.parametrize(
    "g, error",
    [
        (build_graph([("a", "c"), ("b", "c")]), GraphError),
        (build_graph([("a", "b"), ("b", "a")], sources=[]), GraphError),
        (build_graph([("s", "a"), ("a", "b"), ("b", "a")], sources=["s"]), CycleError),
    ],
)
def test_gains_checks_the_graph_when_called(g, error):
    read = []
    with pytest.raises(error):
        gains(g, (read.append(1) or () for _ in range(3)))  # never advanced
    assert read == []


def test_gains_reads_sets_lazily_at_most_256_ahead():
    g = random_dag(8, 0.5, 3)
    read = []

    def sets():
        for i in range(700):
            read.append(i)
            yield [i % g.n]

    scores = gains(g, sets())
    assert read == []  # nothing is read before the first score is asked for
    for asked, f in enumerate(scores, 1):
        assert f == _f(g, [(asked - 1) % g.n])
        assert asked <= len(read) <= asked + 255  # at most 256 sets ahead
    assert len(read) == 700


def _diamonds_with_sinks(count, sinks):
    """A chain of ``count`` diamonds, path counts doubling at each, then
    ``sinks`` sinks under its last merge."""
    heads = ["s"] + [f"j{i}" for i in range(count - 1)]
    edges = [
        e for i, h in enumerate(heads)
        for e in ((h, f"a{i}"), (h, f"b{i}"), (f"a{i}", f"j{i}"), (f"b{i}", f"j{i}"))
    ]
    return build_graph(edges + [(f"j{count - 1}", f"t{i}") for i in range(sinks)])


def test_packed_pass_holds_lane_ints_only_for_tails_still_to_be_read():
    # each lane int is 256 lanes of ~300 bits; keeping every node's (as a
    # pass once did) peaked near 1800 of them, and the order is at most 301 wide
    g = _diamonds_with_sinks(300, 300)
    assert g.n == 1201
    phi_empty, _ = baseline(g)  # the no-filter prefix is the graph's, not the pass's
    lane_int = sys.getsizeof(1 << (256 * (phi_empty.bit_length() + 2) - 1))
    rng = random.Random(1)
    sets = [rng.sample(range(g.n), 5) for _ in range(256)]
    tracemalloc.start()
    try:
        scores = list(gains(g, sets))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < g.n / 4 * lane_int
    assert scores[:8] == [_f(g, s) for s in sets[:8]]


@pytest.mark.parametrize("seed", range(8))
def test_wide_passes_match_simulate_with_sources_and_sinks_as_members(seed):
    # 256 lanes of at least 8 bits each: every pass here drops its tails'
    # ints, and each set may name the source, a sink, or a node twice
    rng = random.Random(seed + 41000)
    g = random_dag(rng.randint(12, 30), rng.uniform(0.3, 0.6), seed + 41000)
    if seed % 2:  # one more node, unreached, with edges into the graph
        heads = rng.sample(range(g.n), 3)
        g = indexed_graph(g.labels + ("x",), g.edges + tuple((g.n, v) for v in heads), g.sources)
    assert 256 * (baseline(g)[0].bit_length() + 2) >= path_stats._WIDE
    (source,) = g.sources
    sinks = [v for v in range(g.n) if not g.out_adj[v]]
    sets = []
    for _ in range(300):
        members = rng.sample(range(g.n), rng.randint(0, 6))
        members += rng.sample([source] + sinks, rng.randint(0, 2)) + members[:1]
        sets.append(members)
    assert list(gains(g, sets)) == [_f(g, s) for s in sets]


def test_release_list_is_built_once_per_graph_and_only_for_wide_passes(monkeypatch):
    built = []
    real = path_stats._last_reads
    monkeypatch.setattr(path_stats, "_last_reads", lambda g: built.append(g) or real(g))
    shallow = g_fanin()  # phi(empty) = 10: 6-bit lanes
    objective_f(shallow, {shallow.index("z2")})
    assert list(gains(shallow, [[v] for v in range(7)] * 2)) == [0, 0, 0, 0, 1, 0, 0] * 2
    assert built == []  # 12 lanes of 6 bits, far below the rule
    deep = _diamonds_with_sinks(40, 3)
    sets = [[v] for v in range(deep.n)] * 2  # 2 passes of 256 lanes, ~50 bits each
    assert list(gains(deep, sets)) == list(gains(deep, sets)) == [_f(deep, s) for s in sets]
    assert built == [deep]
