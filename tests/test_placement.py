import hashlib
import random
import sys

import pytest

from fixtures import g_diamond, g_fanin, g_degree_trap, g_mergers, g_tree1
from flowfilter.graph import CGraph, build_graph
from flowfilter.harness import oracle, run_algorithm
from flowfilter.placement import (
    NotACTreeError,
    as_ctree,
    eligible_nodes,
    greedy_1,
    greedy_all,
    greedy_l,
    greedy_max,
    optimal_unbounded,
    rand_w_weights,
    random_picker,
    randomized_baseline,
    tree_dp,
    tree_dp_tables,
)
from flowfilter.propagation import objective_f
from flowfilter.synth import random_ctree, random_dag

from _oracles import tree_dp_reference


# --- greedy_1 ----------------------------------------------------------------


def test_greedy_1_prefers_degree_product():
    g = g_degree_trap()  # m(B) = 1*4 beats m(A) = 3*1
    assert g.sorted_labels(greedy_1(g, 1)) == ["B"]


def test_greedy_1_tie_break_by_index():
    g = g_fanin()  # x, y, z2 all have m = 2; x has the smallest index
    assert g.sorted_labels(greedy_1(g, 1)) == ["x"]


def test_greedy_1_k_zero_and_k_large():
    g = g_fanin()
    assert greedy_1(g, 0) == ()
    assert set(greedy_1(g, 99)) == set(eligible_nodes(g))


# --- greedy_all --------------------------------------------------------------


def test_greedy_all_fanin():
    g = g_fanin()
    fs = greedy_all(g, 1)
    assert g.sorted_labels(fs) == ["z2"]
    assert objective_f(g, fs) == 1


def test_greedy_all_degree_trap_finds_true_optimum():
    g = g_degree_trap()
    fs = greedy_all(g, 1)
    assert g.sorted_labels(fs) == ["A"]
    assert objective_f(g, fs) == 2


def test_greedy_all_stops_early_when_gains_vanish():
    g = g_diamond()
    fs = greedy_all(g, 2)
    assert g.sorted_labels(fs) == ["c"]
    assert objective_f(g, fs) == 1


# --- greedy_max --------------------------------------------------------------


def test_greedy_max_single_pick():
    g1, g2 = g_fanin(), g_degree_trap()
    assert g1.sorted_labels(greedy_max(g1, 1)) == ["z2"]
    assert g2.sorted_labels(greedy_max(g2, 1)) == ["A"]


def test_greedy_max_ignores_filter_interaction():
    # both merger-path nodes look valuable in isolation, but the second
    # filter adds nothing once the first is placed
    g = g_mergers()
    fs = greedy_max(g, 2)
    assert g.sorted_labels(fs) == ["m1", "m2"]
    assert objective_f(g, fs) == objective_f(g, {g.index("m1")})


# --- greedy_l ----------------------------------------------------------------


def test_greedy_l_fanin_tie_break():
    g = g_fanin()
    assert g.sorted_labels(greedy_l(g, 1)) == ["x"]


def test_greedy_l_inherits_degree_bias_on_degree_trap():
    g = g_degree_trap()  # prefix(B)*4 = 4 beats prefix(A)*1 = 3
    assert g.sorted_labels(greedy_l(g, 1)) == ["B"]


def test_greedy_l_exhausts_eligible_nodes():
    g = g_diamond()
    fs = greedy_l(g, 99)
    assert set(fs) == set(eligible_nodes(g))


# --- optimal_unbounded -------------------------------------------------------


def test_optimal_unbounded_examples():
    g1, g2 = g_fanin(), g_degree_trap()
    assert g1.sorted_labels(optimal_unbounded(g1)) == ["z2"]
    assert g2.sorted_labels(optimal_unbounded(g2)) == ["A"]
    chain = build_graph([("s", "a"), ("a", "b"), ("b", "c")])
    assert optimal_unbounded(chain) == frozenset()


@pytest.mark.parametrize("seed", range(12))
def test_optimal_unbounded_saturates_and_is_minimal(seed):
    rng = random.Random(seed)
    g = random_dag(rng.randint(2, 10), rng.uniform(0.2, 0.8), seed + 600)
    fs = optimal_unbounded(g)
    f_all = objective_f(g, eligible_nodes(g))
    assert objective_f(g, fs) == f_all
    for v in fs:  # dropping any member loses redundancy removal
        assert objective_f(g, fs - {v}) < f_all


# --- greedy_all vs oracle ---------------------------------------------------


@pytest.mark.parametrize("seed", range(15))
def test_greedy_all_optimal_at_k1(seed):
    rng = random.Random(seed)
    g = random_dag(rng.randint(2, 10), rng.uniform(0.2, 0.8), seed + 700)
    _, best = oracle(g, 1)
    assert objective_f(g, greedy_all(g, 1)) == best


def _simulator_greedy(g, k):
    # gains measured by the simulator; ties go to the smallest index, and
    # the greedy stops once no gain is positive; picks in the order made
    picks = []
    for _ in range(k):
        base = objective_f(g, picks)
        best, best_gain = None, 0
        for v in eligible_nodes(g):
            if v in picks:
                continue
            gain = objective_f(g, picks + [v]) - base
            if gain > best_gain:
                best, best_gain = v, gain
        if best is None:
            break
        picks.append(best)
    return tuple(picks)


def test_greedy_all_matches_simulator_greedy():
    for seed in range(200):
        rng = random.Random(seed)
        g = random_dag(rng.randint(2, 12), rng.uniform(0.1, 0.9), seed + 900)
        k = rng.randint(0, 4)
        assert greedy_all(g, k) == _simulator_greedy(g, k), seed


def test_greedy_all_suboptimal_witness():
    # frozen witness found by randomized search: at k=2 greedy_all can miss
    # the optimum
    rng = random.Random(35)
    n = rng.randint(4, 12)
    p = rng.uniform(0.2, 0.7)
    g = random_dag(n, p, 35 + 10000)
    f_greedy = objective_f(g, greedy_all(g, 2))
    _, f_best = oracle(g, 2)
    assert f_greedy == 19
    assert f_best == 20
    assert f_greedy < f_best


# --- tree DP ------------------------------------------------------------------


def test_tree_dp_tree1():
    g = g_tree1()
    t = as_ctree(g)
    fs = tree_dp(t, 1)
    assert g.sorted_labels(fs) == ["a"]
    assert objective_f(g, fs) == 1  # receipts drop 6 -> 5


def test_tree_dp_star_no_redundancy():
    g = build_graph(
        [("s", "r"), ("r", "c1"), ("r", "c2"), ("r", "c3"), ("r", "c4")]
    )
    fs = tree_dp(as_ctree(g), 1)
    assert objective_f(g, fs) == 0


def test_tree_dp_k_zero():
    t = as_ctree(g_tree1())
    assert tree_dp(t, 0) == frozenset()


@pytest.mark.parametrize("seed", range(15))
def test_tree_dp_matches_oracle(seed):
    rng = random.Random(seed)
    t = random_ctree(rng.randint(1, 12), rng.uniform(0.0, 0.8), seed + 800)
    for k in (1, 2, 3):
        got = objective_f(t.graph, tree_dp(t, k))
        _, best = oracle(t.graph, k)
        assert got == best


def test_tree_dp_wide_node():
    # the five children of r are joined one by one; values must stay exact
    edges = [("s", "r")] + [("r", f"c{i}") for i in range(5)]
    edges += [("s", "c0"), ("s", "c3"), ("c1", "g1"), ("s", "g1")]
    g = build_graph(edges)
    t = as_ctree(g)
    for k in (1, 2, 3):
        _, best = oracle(g, k)
        fs = tree_dp(t, k)
        assert objective_f(g, fs) == best
        assert all(0 <= v < g.n for v in fs)


def test_tree_dp_tie_breaks_pinned():
    # Which of several optimal sets tree_dp returns reaches the CLI output,
    # so the choice itself is pinned: no filter unless strictly better, and
    # each earlier child gets the smallest budget that reaches the minimum.
    h = hashlib.sha256()
    for seed in range(300):
        rng = random.Random(seed)
        t = random_ctree(rng.randint(1, 40), rng.uniform(0.0, 0.9), seed + 4000)
        for k in (0, 1, 2, 3, 5):
            h.update(" ".join(t.graph.sorted_labels(tree_dp(t, k))).encode() + b"\n")
    assert h.hexdigest() == (
        "5d14e5293ba595ea73551c24fef96eaf2c8b4b26a0b8283204afb30a3ba2cc7a"
    )


def test_tree_dp_deep_chain_without_recursion(monkeypatch):
    def refuse(limit):
        raise AssertionError("tree_dp must not touch the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    n = 10_000
    edges = [("s", "t0")] + [(f"t{i}", f"t{i + 1}") for i in range(n - 1)]
    edges += [("s", f"t{i}") for i in (10, 2_000, 5_000, 7_500, 9_990)]
    g = build_graph(edges, sources=["s"])
    fs = tree_dp(as_ctree(g), 3)
    assert len(fs) <= 3
    assert objective_f(g, fs) >= objective_f(g, greedy_all(g, 3))


def test_tree_dp_random_ctree_of_100k_nodes(monkeypatch):
    def refuse(limit):
        raise AssertionError("tree_dp must not touch the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    t = random_ctree(100_000, 0.05, 2024)
    fs = tree_dp(t, 3)
    assert len(fs) <= 3
    assert objective_f(t.graph, fs) >= objective_f(t.graph, greedy_1(t.graph, 3))


def test_tree_dp_matches_reference_on_random_ctrees():
    # identical sets, not just equal objectives: the tie-breaks reach the CLI
    for seed in range(1000):
        rng = random.Random(seed)
        t = random_ctree(rng.randint(1, 60), rng.uniform(0.0, 0.9), seed + 9000)
        k = (0, 1, 2, 3, 5, 8)[seed % 6]
        assert tree_dp(t, k) == tree_dp_reference(t, k), (seed, k)


def test_tree_dp_matches_reference_on_random_forests():
    # random_ctree builds one tree; here 2-6 random recursive trees hang
    # off the source, so the budget is split among several roots
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(2, 60)
        roots = {0, *rng.sample(range(1, n), rng.randint(2, min(6, n)) - 1)}
        p = rng.uniform(0.0, 0.9)
        edges = []
        for i in range(n):
            if i in roots:
                edges.append(("s", f"t{i}"))
                continue
            edges.append((f"t{rng.randrange(i)}", f"t{i}"))
            if rng.random() < p:
                edges.append(("s", f"t{i}"))
        t = as_ctree(build_graph(edges, sources=["s"]))
        assert len(t.roots) == len(roots)
        traceback = tree_dp_tables(t, 8)
        for k in (0, 1, 2, 3, 5, 8):
            want = tree_dp(t, k)
            assert want == tree_dp_reference(t, k), (seed, k)
            assert traceback(k) == want, (seed, k)


def test_tree_dp_tables_trace_back_every_smaller_budget():
    # a value at budget b reads only budgets <= b, so the tables built once
    # for k_max give, at each k, the set that tables built for k give
    for seed in range(1000):
        rng = random.Random(seed)
        t = random_ctree(rng.randint(1, 60), rng.uniform(0.0, 0.9), seed + 9000)
        k_max = (0, 1, 2, 3, 5, 8)[seed % 6]
        traceback = tree_dp_tables(t, k_max)
        for k in range(k_max + 1):
            assert traceback(k) == tree_dp(t, k), (seed, k)


def test_tree_dp_tables_reject_budgets_outside_0_to_k_max():
    # past k_max the tables are capped, so a traceback would silently
    # return a worse set; a negative budget would return an oversized one
    traceback = tree_dp_tables(random_ctree(60, 0.3, 5), 1)
    with pytest.raises(ValueError, match="k must be <= k_max = 1, got 3"):
        traceback(3)
    with pytest.raises(ValueError, match="k must be >= 0, got -1"):
        traceback(-1)


def test_tree_dp_saturated_budgets_on_exhaustive_small_chains():
    # every chain s -> t0 -> ... -> t(n-1), n <= 8, with every subset of
    # t1..t(n-1) fed by an extra source edge, at every k up to n: a lone
    # child often gets more budget than its subtree can use
    cases = 0
    for n in range(1, 9):
        for mask in range(1 << (n - 1)):
            edges = [("s", "t0")] + [(f"t{i}", f"t{i + 1}") for i in range(n - 1)]
            edges += [("s", f"t{i}") for i in range(1, n) if mask >> (i - 1) & 1]
            t = as_ctree(build_graph(edges, sources=["s"]))
            traceback = tree_dp_tables(t, n)
            for k in range(n + 1):
                assert traceback(k) == tree_dp_reference(t, k), (n, mask, k)
                cases += 1
    assert cases == 2048


@pytest.mark.parametrize("seed", range(6))
def test_tree_dp_matches_reference_on_deep_chains(seed):
    # most chain nodes carry a source edge, so the deepest tables have
    # dozens of inflow rows; a few side leaves make some nodes join
    rng = random.Random(seed)
    n = rng.randint(40, 90)
    edges = [("s", "t0")] + [(f"t{i}", f"t{i + 1}") for i in range(n - 1)]
    edges += [("s", f"t{i}") for i in range(1, n) if rng.random() < 0.8]
    for i in rng.sample(range(n), n // 5):
        edges.append((f"t{i}", f"x{i}"))
        if rng.random() < 0.5:
            edges.append(("s", f"x{i}"))
    t = as_ctree(build_graph(edges, sources=["s"]))
    for k in (0, 1, 2, 3, 5, 8):
        assert tree_dp(t, k) == tree_dp_reference(t, k), k


@pytest.mark.parametrize("seed", range(6))
def test_tree_dp_matches_reference_on_wide_stars(seed):
    # one hub with dozens of children, some with children of their own,
    # and several source-fed roots joined at the top
    rng = random.Random(seed)
    edges = [("s", f"r{i}") for i in range(rng.randint(1, 4))]
    for c in range(rng.randint(10, 40)):
        edges.append(("r0", f"c{c}"))
        if rng.random() < 0.5:
            edges.append(("s", f"c{c}"))
        for g in range(rng.choice((0, 0, 1, 3))):
            edges.append((f"c{c}", f"g{c}_{g}"))
            if rng.random() < 0.4:
                edges.append(("s", f"g{c}_{g}"))
    t = as_ctree(build_graph(edges, sources=["s"]))
    for k in (0, 1, 2, 3, 5, 8):
        assert tree_dp(t, k) == tree_dp_reference(t, k), k


def test_tree_dp_budget_past_the_node_count_changes_nothing():
    for seed in range(500):
        rng = random.Random(seed)
        t = random_ctree(rng.randint(1, 12), rng.uniform(0.0, 0.9), seed + 6000)
        n = t.graph.n
        want = tree_dp(t, n - 1)
        for k in range(n - 1, n + 4):
            assert tree_dp(t, k) == want, (seed, k)
        assert tree_dp(t, 10**6) == want, seed


def test_tree_dp_source_only_graph():
    assert tree_dp(as_ctree(CGraph(["s"], [], [0])), 3) == frozenset()


def test_as_ctree_rejects_non_trees():
    # the CLI prints these messages when it exits 1
    cases = [
        (build_graph([("a", "c"), ("b", "c")]), "expected exactly one source, got 2"),
        (
            build_graph([("s", "a"), ("a", "b"), ("b", "a")], sources=["s"]),
            "graph is cyclic: directed cycle: a -> b -> a",
        ),
        (g_diamond(), "node 'c' has 2 non-source parents"),
        (
            build_graph([("s", "a"), ("x", "b")], sources=["s"]),
            "node 'x' is not reachable from the source",
        ),
    ]
    for g, message in cases:
        with pytest.raises(NotACTreeError) as exc:
            as_ctree(g)
        assert str(exc.value) == message


# --- randomized baselines -----------------------------------------------------


def test_rand_k_draws_exactly_k():
    g = g_fanin()
    fs = randomized_baseline(g, 3, "rand_k", 123)
    assert len(fs) == 3


def test_rand_k_all_nodes_when_k_equals_n():
    g = g_fanin()
    fs = randomized_baseline(g, g.n, "rand_k", 3)
    assert fs == frozenset(range(g.n))


def test_rand_k_rejects_k_above_n():
    with pytest.raises(ValueError):
        randomized_baseline(g_fanin(), 8, "rand_k", 0)


def test_rand_i_golden_set():
    g = g_fanin()
    fs = randomized_baseline(g, 3, "rand_i", 0)
    assert g.sorted_labels(fs) == ["y", "z1", "z3"]  # generated once, frozen


def test_rand_w_weights_fanin():
    g = g_fanin()
    w = {g.labels[v]: wt for v, wt in enumerate(rand_w_weights(g))}
    assert w["x"] == pytest.approx(1.5)  # 1/d_in(z1) + 1/d_in(z2)
    assert w["s"] == pytest.approx(2.0)
    assert w["w"] == 0


def test_rand_w_clamps_probabilities():
    g = g_fanin()
    # k = n pushes w(s)*k/n = 2.0 past 1; must clamp, not crash
    fs = randomized_baseline(g, g.n, "rand_w", 5)
    assert g.index("s") in fs  # probability clamped to exactly 1


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        randomized_baseline(g_fanin(), 1, "rand_x", 0)


@pytest.mark.parametrize("entry", ["picker", "baseline"])
@pytest.mark.parametrize("variant", ["rand_k", "rand_i", "rand_w"])
def test_baselines_reject_negative_budget(variant, entry):
    g = random_dag(10, 0.3, 1)
    with pytest.raises(ValueError) as exc:
        if entry == "picker":
            random_picker(g, variant)(-1, 0)
        else:
            randomized_baseline(g, -1, variant, 0)
    assert str(exc.value) == "k must be >= 0, got -1"


@pytest.mark.parametrize("entry", ["picker", "baseline", "run_algorithm"])
@pytest.mark.parametrize("variant", ["rand_k", "rand_i", "rand_w"])
def test_baselines_reject_seed_none(variant, entry):
    # random.Random(None) seeds from the OS: a pick would not be reproducible
    g = random_dag(30, 0.2, 1)
    with pytest.raises(ValueError) as exc:
        if entry == "picker":
            random_picker(g, variant)(3, None)
        elif entry == "baseline":
            randomized_baseline(g, 3, variant, None)
        else:
            run_algorithm(g, variant.replace("_", "-"), 3, None)
    assert str(exc.value) == f"{variant} needs an integer seed, got None"


@pytest.mark.parametrize("variant", ["rand_k", "rand_i", "rand_w"])
def test_baselines_reproducible_from_seed(variant):
    g = g_degree_trap()
    a = randomized_baseline(g, 3, variant, 2)
    b = randomized_baseline(g, 3, variant, 2)
    assert a == b
    c = randomized_baseline(g, 3, variant, 4)
    d = randomized_baseline(g, 3, variant, 7)
    # different seeds should not all collapse to one draw
    assert len({a, c, d}) > 1


# --- determinism of the deterministic selectors -------------------------------


GREEDIES = {"greedy-1": greedy_1, "greedy-all": greedy_all, "greedy-max": greedy_max,
             "greedy-l": greedy_l}


@pytest.mark.parametrize("name", GREEDIES)
def test_greedy_picks_for_k_start_with_the_picks_for_smaller_k(name):
    algo = GREEDIES[name]
    for seed in range(200):
        rng = random.Random(seed)
        g = random_dag(rng.randint(2, 12), rng.uniform(0.1, 0.9), seed + 1100)
        picks = [algo(g, k) for k in range(g.n + 2)]
        for k, got in enumerate(picks):
            assert type(got) is tuple, (seed, k)
            assert len(set(got)) == len(got) <= k, (seed, k)
            assert not set(got) & g.sources, (seed, k)
            assert all(got[:j] == picks[j] for j in range(k + 1)), (seed, k)
            assert frozenset(got) == run_algorithm(g, name, k), (seed, k)


@pytest.mark.parametrize("algo", [greedy_1, greedy_all, greedy_max, greedy_l])
def test_deterministic_selectors_repeat_exactly(algo):
    g = g_degree_trap()
    assert algo(g, 2) == algo(g, 2)


@pytest.mark.parametrize("algo", [greedy_1, greedy_all, greedy_max, greedy_l])
def test_deterministic_selectors_never_pick_sources(algo):
    g = g_degree_trap()
    fs = algo(g, g.n)
    assert g.index("s") not in fs
    assert len(fs) <= g.n
