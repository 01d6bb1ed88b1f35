"""The public API, pinned: adding or removing a name edits this list."""

import pytest

import flowfilter

PUBLIC = [
    "CGraph",
    "CycleError",
    "GraphError",
    "NoSourceError",
    "NotACTreeError",
    "ParseError",
    "add_super_source",
    "as_ctree",
    "best_dag",
    "build_graph",
    "compute_stats",
    "extract_dag",
    "fr_curve",
    "greedy_1",
    "greedy_all",
    "greedy_l",
    "greedy_max",
    "impact_table",
    "objective_f",
    "optimal_unbounded",
    "oracle",
    "parse_edge_list",
    "randomized_baseline",
    "serialize_edge_list",
    "simulate",
    "topological_order",
    "tree_dp",
]


def test_public_api_is_pinned():
    assert sorted(flowfilter.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(flowfilter, name) is not None, name
    # a graph comes only from a loader: the class takes no index pairs
    for args in [(("a", "b"), [(0, 1)]), ()]:
        with pytest.raises(TypeError):
            flowfilter.CGraph(*args)
