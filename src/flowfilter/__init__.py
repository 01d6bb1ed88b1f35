"""flowfilter: filter placement for redundancy elimination in flow graphs."""

__version__ = "0.1.0"

from .graph import (
    CGraph,
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
from .propagation import CountTable, objective_f, phi_total, simulate
from .path_stats import PathStats, compute_stats, impact, impact_table
from .placement import (
    CTree,
    NotACTreeError,
    as_ctree,
    greedy_1,
    greedy_all,
    greedy_l,
    greedy_max,
    optimal_unbounded,
    randomized_baseline,
    tree_dp,
)
from .dag_extract import best_dag, extract_dag
from .harness import filter_ratio, fr_curve, oracle

__all__ = [
    "CGraph",
    "CountTable",
    "CTree",
    "CycleError",
    "GraphError",
    "NoSourceError",
    "NotACTreeError",
    "ParseError",
    "PathStats",
    "add_super_source",
    "as_ctree",
    "best_dag",
    "build_graph",
    "compute_stats",
    "extract_dag",
    "filter_ratio",
    "fr_curve",
    "greedy_1",
    "greedy_all",
    "greedy_l",
    "greedy_max",
    "impact",
    "impact_table",
    "objective_f",
    "optimal_unbounded",
    "oracle",
    "parse_edge_list",
    "phi_total",
    "randomized_baseline",
    "serialize_edge_list",
    "simulate",
    "topological_order",
    "tree_dp",
]
