"""The public API, pinned: adding or removing a name edits this list."""

import ast
from pathlib import Path

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


def _names(path: Path) -> set[str]:
    """Every name a module's code binds or reads, and every string equal to one."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, (ast.Attribute, ast.alias, ast.FunctionDef, ast.ClassDef)):
            names.add(node.attr if isinstance(node, ast.Attribute) else node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


@pytest.mark.parametrize(
    "names, owners",
    [
        # the reference the oracle tests compare against is on no program path
        ({"simulate", "filter_members"}, {"propagation", "__init__"}),
        # the per-graph lists are kept and read by one module
        ({"_no_filter", "per_graph"}, {"graph", "path_stats"}),
    ],
)
def test_names_stay_in_their_modules(names, owners):
    modules = Path(flowfilter.__file__).parent.glob("*.py")
    assert {p.stem for p in modules if names & _names(p)} <= owners
