import itertools
import random
import statistics
from fractions import Fraction
from math import comb
from types import SimpleNamespace

import pytest

from _oracles import exhaustive_best, greedy_all_reference, greedy_l_reference, random_dag
from flowfilter import harness, path_stats, placement
from fixtures import g_diamond, g_fanin, g_degree_trap, g_tree1
from flowfilter.graph import CycleError, GraphError, build_graph
from flowfilter.harness import (
    ALGORITHMS,
    BudgetExceededError,
    FRRow,
    PlacementResult,
    curve_to_csv,
    curve_to_json_obj,
    format_fraction,
    fr_curve,
    max_objective,
    oracle,
    ratio,
    run_algorithm,
)
from flowfilter.placement import eligible_nodes
from flowfilter.propagation import objective_f


def _fr(g, filters):
    return ratio(objective_f(g, filters), max_objective(g))


def test_filter_ratio_examples():
    g1, g2 = g_fanin(), g_degree_trap()
    assert _fr(g1, {g1.index("z2")}) == 1
    assert _fr(g2, {g2.index("B")}) == 0
    chain = build_graph([("s", "a"), ("a", "b")])
    assert _fr(chain, {chain.index("a")}) == 1  # F(V) = 0 convention


def test_max_objective():
    assert max_objective(g_fanin()) == 1
    assert max_objective(g_degree_trap()) == 2


@pytest.mark.parametrize(
    "g, error",
    [
        (build_graph([("a", "c"), ("b", "c")]), GraphError),
        (build_graph([("s", "a"), ("a", "b"), ("b", "a")], sources=["s"]), CycleError),
    ],
)
def test_max_objective_checks_the_graph(g, error):
    # a multi-source graph has a no-filter prefix too, but no F(V)
    with pytest.raises(error):
        max_objective(g)


def test_max_objective_scores_no_set(scoring_calls):
    sims, passes = scoring_calls
    g = g_degree_trap()
    assert [max_objective(g), max_objective(g)] == [2, 2]
    assert (len(sims), passes) == (1, [])  # one no-filter prefix pass, kept


def test_filter_ratio_is_exact_fraction():
    g = g_degree_trap()
    got = _fr(g, {g.index("u1")})
    assert isinstance(got, Fraction)
    assert got == Fraction(0, 1) or 0 <= got <= 1


def test_oracle_examples():
    g1, g2, gd = g_fanin(), g_degree_trap(), g_diamond()
    fs, f = oracle(g1, 1)
    assert (g1.sorted_labels(fs), f) == (["z2"], 1)
    fs, f = oracle(g2, 1)
    assert (g2.sorted_labels(fs), f) == (["A"], 2)
    fs, f = oracle(gd, 2)
    assert (gd.sorted_labels(fs), f) == (["c"], 1)  # no pair beats the singleton


@pytest.mark.parametrize("seed", range(8))
def test_oracle_matches_scalar_scan_across_chunks(seed):
    # 24 eligible nodes and k = 2 give 300 candidates: more than one packed
    # chunk, with many ties among sparse graphs' sets
    g = random_dag(24, [0.05, 0.15, 0.3, 0.6][seed % 4], seed + 300)
    fs, f = oracle(g, 2)
    assert (fs, f) == exhaustive_best(g, 2)


def test_oracle_scores_the_last_chunk():
    # two disjoint diamonds whose join nodes x and y carry the highest
    # indices, so {x, y}, the only set with F = 2, is the last of the 351
    # candidates
    edges = [("s", f"c{i}") for i in range(18)]
    for join in ("x", "y"):
        edges += [("s", f"{join}1"), ("s", f"{join}2"), (f"{join}1", join),
                  (f"{join}2", join), (join, f"{join}t")]
    labels = ["s"] + [f"c{i}" for i in range(18)] + ["x1", "x2", "xt", "y1", "y2", "yt", "x", "y"]
    g = build_graph(edges, nodes=labels)
    fs, f = oracle(g, 2)
    assert (g.sorted_labels(fs), f) == (["x", "y"], 2)


def test_oracle_budget():
    g = g_degree_trap()
    with pytest.raises(BudgetExceededError):
        oracle(g, 3, budget=10)
    oracle(g, 3, budget=10**6)  # fine


def test_oracle_budget_counts_every_candidate_subset():
    # the empty set, the singletons and the pairs: a budget of exactly that
    # many runs, one less raises before any is scored
    g = g_degree_trap()
    total = sum(comb(len(eligible_nodes(g)), j) for j in range(3))
    assert oracle(g, 2, budget=total) == oracle(g, 2)
    message = f"^{total} candidate subsets exceed the budget of {total - 1}$"
    with pytest.raises(BudgetExceededError, match=message):
        oracle(g, 2, budget=total - 1)


def test_oracle_prefers_smaller_sets_on_ties():
    g = g_diamond()
    fs, _ = oracle(g, 3)
    assert g.sorted_labels(fs) == ["c"]


@pytest.mark.parametrize("name", ALGORITHMS)
def test_run_algorithm_returns_frozenset_of_node_indices(name):
    g = g_tree1() if name == "tree-dp" else g_degree_trap()
    fs = run_algorithm(g, name, 2, seed=7)
    assert type(fs) is frozenset
    assert all(type(v) is int and 0 <= v < g.n for v in fs)


def test_oracle_and_fr_curve_return_plain_types():
    g = g_degree_trap()
    fs, f = oracle(g, 2)
    assert type(fs) is frozenset and type(f) is int
    assert all(type(v) is int and 0 <= v < g.n for v in fs)
    curve = fr_curve(g, ["greedy-1", "rand-w"], k_max=2, runs=3)
    assert type(curve) is tuple and len(curve) == 4
    assert all(type(row) is FRRow for row in curve)


def test_run_algorithm_dispatch():
    g = g_degree_trap()
    assert g.sorted_labels(run_algorithm(g, "greedy-all", 1)) == ["A"]
    assert g.sorted_labels(run_algorithm(g, "optimal-unbounded", 0)) == ["A"]
    t = g_tree1()
    assert t.sorted_labels(run_algorithm(t, "tree-dp", 1)) == ["a"]
    fs = run_algorithm(g, "rand-k", 2, seed=5)
    assert len(fs) == 2
    with pytest.raises(ValueError):
        run_algorithm(g, "greedy-9", 1)


def test_fr_curve_fanin_greedy_all():
    g = g_fanin()
    curve = fr_curve(g, ["greedy-all"], k_max=2)
    assert [(r.algorithm, r.k, r.fr) for r in curve] == [
        ("greedy-all", 1, Fraction(1)),
        ("greedy-all", 2, Fraction(1)),
    ]


def test_fr_curve_degree_trap_contrast():
    g = g_degree_trap()
    curve = fr_curve(g, ["greedy-1", "greedy-all"], k_max=1)
    fr = {(r.algorithm, r.k): r.fr for r in curve}
    assert fr[("greedy-1", 1)] == 0
    assert fr[("greedy-all", 1)] == 1


def test_fr_curve_rows_carry_runs_and_results():
    g = g_fanin()
    curve = fr_curve(g, ["greedy-all", "rand-k"], k_max=1, runs=4, seed=3)
    det, rnd = curve
    assert det.runs == 1 and len(det.results) == 1
    assert rnd.runs == 4 and len(rnd.results) == 4
    assert rnd.algorithm == "rand-k"
    # averaged F first, then divided
    mean_f = Fraction(sum(r.f for r in rnd.results), 4)
    assert rnd.fr == mean_f / max_objective(g)


def test_fr_curve_runs_each_trial_once(monkeypatch):
    prepares, picks = {}, {}

    def counting(name, prepare):
        def wrapped_prepare(g, k_max):
            prepares[name, k_max] = prepares.get((name, k_max), 0) + 1
            pick = prepare(g, k_max)

            def wrapped_pick(k, seed):
                picks[name] = picks.get(name, 0) + 1
                return pick(k, seed)

            return wrapped_pick

        return wrapped_prepare

    runners = {name: counting(name, prep) for name, prep in harness._RUNNERS.items()}
    monkeypatch.setattr(harness, "_RUNNERS", runners)
    fr_curve(g_fanin(), ["greedy-all", "rand-k"], k_max=3, runs=4)
    assert picks == {"greedy-all": 3, "rand-k": 12}
    assert prepares == {("greedy-all", 3): 1, ("rand-k", 3): 1}  # once per algorithm


def test_fr_curve_wall_ms_is_the_pick_plus_a_share_of_the_setup(monkeypatch):
    # a clock that reads 0, 1, 2, ... seconds: the setup and every pick take
    # 1 s, and the setup is shared by the algorithm's trials on the curve,
    # 2 for greedy-1 and 2 x 4 for rand-k
    clock = itertools.count()
    monkeypatch.setattr(harness, "time", SimpleNamespace(perf_counter=clock.__next__))
    curve = fr_curve(g_fanin(), ["greedy-1", "rand-k"], k_max=2, runs=4)
    trials = [[r.wall_ms for r in row.results] for row in curve]
    assert trials == [[1500.0]] * 2 + [[1125.0] * 4] * 2
    assert [row.wall_ms for row in curve] == [1500.0, 1500.0, 1125.0, 1125.0]


def test_rand_w_weights_computed_once_per_curve(monkeypatch):
    calls = []
    real = placement.rand_w_weights
    monkeypatch.setattr(placement, "rand_w_weights", lambda g: calls.append(1) or real(g))
    fr_curve(g_fanin(), ["rand-w"], 3, runs=4)
    assert len(calls) == 1  # not one per k, nor one per trial


def test_fr_curve_certifies_and_builds_tree_dp_tables_once(monkeypatch):
    calls = []
    for module, name in ((harness, "tree_dp"), (placement, "as_ctree")):
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *args, real=real, name=name: calls.append(name) or real(*args)
        )
    curve = fr_curve(g_tree1(), ["tree-dp"], k_max=4, runs=3)
    assert len(curve) == 4
    assert calls == ["tree_dp", "as_ctree"]


def test_scoring_simulates_each_filter_set_once(scoring_calls):
    sims, passes = scoring_calls
    fr_curve(g_fanin(), ["greedy-all", "rand-k"], k_max=3, runs=4)
    assert len(sims) == 1  # phi(empty) and F(V)
    assert passes == [3 + 12]  # one packed pass per curve: a lane per trial
    sims.clear()
    passes.clear()
    oracle(g_degree_trap(), 1)
    assert len(sims) == 1  # phi(empty)
    assert passes == [10]  # a lane per eligible singleton; the empty set's F is 0


def test_oracle_with_k_0_returns_the_empty_set_unscored(scoring_calls):
    sims, passes = scoring_calls
    assert oracle(g_degree_trap(), 0) == (frozenset(), 0)
    assert (len(sims), passes) == (1, [])  # the graph check's phi(empty), no packed pass


def test_fr_curve_scores_at_most_256_sets_per_pass(scoring_calls):
    # 3 k values x 100 trials: the packed passes stay bounded whatever
    # --kmax x --runs asks for
    _, passes = scoring_calls
    fr_curve(g_fanin(), ["rand-k"], k_max=3, runs=100)
    assert passes == [256, 300 - 256]  # 300 trials


def test_fr_curve_makes_every_pick_before_its_first_packed_pass(monkeypatch):
    # 300 picks, more than one packed pass holds: every one is made before
    # any is scored, and the passes still carry at most 256 lanes each
    events = []

    def recording(prepare):
        def wrapped_prepare(g, k_max):
            pick = prepare(g, k_max)
            return lambda k, seed: events.append("pick") or pick(k, seed)

        return wrapped_prepare

    runners = {name: recording(prep) for name, prep in harness._RUNNERS.items()}
    monkeypatch.setattr(harness, "_RUNNERS", runners)
    real = path_stats._packed_pass
    packed_pass = lambda g, sets, w: events.append(len(sets)) or real(g, sets, w)
    monkeypatch.setattr(path_stats, "_packed_pass", packed_pass)
    fr_curve(g_fanin(), ["rand-k"], k_max=3, runs=100)
    assert events == ["pick"] * 300 + [256, 44]


def test_greedy_curves_match_per_k_references():
    # the curve sets each greedy up once for k_max and slices its ordered
    # picks; the references rerun every round for each k on its own
    references = {"greedy-all": greedy_all_reference, "greedy-l": greedy_l_reference}
    for seed in range(300):
        rng = random.Random(seed)
        g = random_dag(rng.randint(2, 12), rng.uniform(0.1, 0.9), seed + 5000)
        curve = fr_curve(g, list(references), k_max=rng.randint(1, g.n + 1), runs=1)
        for row in curve:
            want = references[row.algorithm](g, row.k)
            assert row.results[0].filters == tuple(g.sorted_labels(want)), (seed, row.k)
            assert run_algorithm(g, row.algorithm, row.k) == want, (seed, row.k)


def test_fr_curve_reproducible():
    g = random_dag(12, 0.4, 2)
    kwargs = dict(algorithms=["greedy-max", "rand-i"], k_max=2, runs=5, seed=11)
    a = fr_curve(g, **kwargs)
    b = fr_curve(g, **kwargs)
    key = lambda curve: [(r.algorithm, r.k, r.fr, r.runs) for r in curve]
    assert key(a) == key(b)


def test_fr_curve_rejects_unknown_algorithm():
    with pytest.raises(ValueError):
        fr_curve(g_fanin(), ["greedy-42"], 1)
    with pytest.raises(ValueError, match="k_max and runs must be >= 1"):
        fr_curve(g_fanin(), ["greedy-1"], 0)


def test_fr_curve_rejects_repeated_algorithm():
    with pytest.raises(ValueError, match="repeated algorithm 'greedy-1'"):
        fr_curve(g_fanin(), ["greedy-1", "greedy-all", "greedy-1"], 1)


def test_rand_k_trials_have_exact_size():
    g = random_dag(50, 0.1, 9)
    curve = fr_curve(g, ["rand-k"], k_max=3, runs=25, seed=17)
    for row in curve:
        for res in row.results:
            assert len(res.filters) == row.k


def test_rand_i_mean_size_within_three_sigma():
    g = random_dag(50, 0.1, 9)
    k, runs = 5, 25
    curve = fr_curve(g, ["rand-i"], k_max=k, runs=runs, seed=23)
    row = [r for r in curve if r.k == k][0]
    sizes = [len(res.filters) for res in row.results]
    n = g.n
    p = k / n
    sigma = (n * p * (1 - p)) ** 0.5
    assert abs(statistics.fmean(sizes) - k) <= 3 * sigma / runs**0.5


def test_format_fraction():
    assert format_fraction(Fraction(1)) == "1.000000"
    assert format_fraction(Fraction(1, 3)) == "0.333333"
    assert format_fraction(Fraction(2, 3)) == "0.666667"
    assert format_fraction(Fraction(0)) == "0.000000"


def test_curve_csv_layout():
    g = g_degree_trap()
    curve = fr_curve(g, ["greedy-1"], k_max=1)
    lines = curve_to_csv(curve).splitlines()
    assert lines[0] == "algorithm,k,fr,runs,wall_ms"
    cells = lines[1].split(",")
    assert cells[:4] == ["greedy-1", "1", "0.000000", "1"]
    float(cells[4])  # wall time parses


def test_curve_json_cells():
    g = g_fanin()
    obj = curve_to_json_obj(fr_curve(g, ["greedy-all"], k_max=1))
    assert obj[0]["algorithm"] == "greedy-all"
    assert obj[0]["results"][0]["filters"] == ["z2"]
    assert obj[0]["results"][0]["f"] == 1


def test_curve_json_is_each_records_own_fields():
    # fr as a float, wall_ms to 3 places and filters as a list; every other
    # field as the record holds it
    trial = PlacementResult(7, ("a", "b"), 2, Fraction(2, 3), 1.23456)
    row = FRRow("rand-k", 2, Fraction(1, 3), 1, 0.0004, (trial,))
    assert curve_to_json_obj((row,)) == [
        {
            "algorithm": "rand-k",
            "k": 2,
            "fr": 1 / 3,
            "runs": 1,
            "wall_ms": 0.0,
            "results": [{"seed": 7, "filters": ["a", "b"], "f": 2, "fr": 2 / 3, "wall_ms": 1.235}],
        }
    ]


@pytest.mark.parametrize("seed", range(6))
def test_fr_bounded_and_monotone_in_k_for_greedy_all(seed):
    rng = random.Random(seed)
    g = random_dag(rng.randint(3, 12), rng.uniform(0.2, 0.8), seed + 40)
    curve = fr_curve(g, ["greedy-all", "rand-w"], k_max=4, runs=3, seed=seed)
    by_algo = {}
    for row in curve:
        assert 0 <= row.fr <= 1
        by_algo.setdefault(row.algorithm, []).append(row.fr)
    greedy = by_algo["greedy-all"]
    assert all(a <= b for a, b in zip(greedy, greedy[1:]))


@pytest.mark.parametrize("seed", range(6))
def test_fr_of_optimal_unbounded_is_one(seed):
    rng = random.Random(seed)
    g = random_dag(rng.randint(2, 12), rng.uniform(0.1, 0.9), seed + 60)
    assert _fr(g, run_algorithm(g, "optimal-unbounded", 0)) == 1


@pytest.mark.parametrize("name", ALGORITHMS)
def test_oracle_and_placement_reject_negative_k(name):
    g = g_fanin()  # not a c-tree: k is checked before any setup
    with pytest.raises(ValueError, match="k must be >= 0, got -1"):
        oracle(g, -1)
    with pytest.raises(ValueError, match="k must be >= 0, got -2"):
        run_algorithm(g, name, -2)


def test_algorithm_registry_names():
    assert set(ALGORITHMS) == {
        "greedy-1",
        "greedy-all",
        "greedy-max",
        "greedy-l",
        "tree-dp",
        "optimal-unbounded",
        "rand-k",
        "rand-i",
        "rand-w",
    }
