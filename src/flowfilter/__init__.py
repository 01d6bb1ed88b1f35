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
from .propagation import objective_f, simulate
from .path_stats import compute_stats, impact_table
from .placement import (
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
from .harness import fr_curve, oracle

__all__ = [
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
