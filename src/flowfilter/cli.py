"""Command-line front end.

Every file-producing subcommand writes a ``<output>.manifest.json`` next to
each output recording the exact command, so runs can be reproduced.
Measured wall times are the only fields exempt from byte-for-byte
reproducibility.

Exit codes: 0 success, 1 data/processing error, 2 usage error.
"""

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__
from .dag_extract import best_dag, extract_dag
from .graph import (
    CGraph,
    CycleError,
    GraphError,
    add_super_source,
    parse_edge_list,
    serialize_edge_list,
    topological_order,
)
from .harness import (
    ALGORITHMS,
    RANDOMIZED_ALGORITHMS,
    BudgetExceededError,
    curve_to_csv,
    curve_to_json_obj,
    fr_curve,
    oracle,
    ratio,
    run_algorithm,
    scoring_constants,
)
from .propagation import phi_total

DAG_HINT = "input graph is cyclic; run `flowfilter extract-dag` on it first"


def _write_with_manifest(path: str, data: str, args: argparse.Namespace) -> None:
    Path(path).write_text(data)
    manifest = {
        "tool": "flowfilter",
        "version": __version__,
        "command": args.command,
        "argv": args._argv,
        "output": path,
    }
    Path(path + ".manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


def _load_graph(args: argparse.Namespace) -> CGraph:
    text = Path(args.input).read_text()
    g = parse_edge_list(text, source_hint=getattr(args, "source", None))
    if getattr(args, "super_source", False):
        g = add_super_source(g)
    return g


def _json_out(obj, args: argparse.Namespace, path: str | None) -> None:
    data = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path:
        _write_with_manifest(path, data, args)
    else:
        sys.stdout.write(data)


def _cmd_generate(args) -> int:
    from .synth import LayeredConfig, layered_graph

    cfg = LayeredConfig(args.levels, args.width, args.x, args.y, args.seed)
    g = layered_graph(cfg)
    _write_with_manifest(args.out, serialize_edge_list(g), args)
    print(f"wrote {args.out}: {g.n} nodes, {g.m} edges (source 's')")
    return 0


def _cmd_extract_dag(args) -> int:
    g = _load_graph(args)
    if args.best_root:
        dag = best_dag(g)
    else:
        dag = extract_dag(g, g.index(args.root))
    _write_with_manifest(args.out, serialize_edge_list(dag), args)
    root_label = dag.labels[next(iter(dag.sources))]
    print(f"wrote {args.out}: {dag.n} nodes, {dag.m} edges, root {root_label!r}")
    return 0


def _cmd_place(args) -> int:
    g = _load_graph(args)
    filters = run_algorithm(g, args.algo, args.k, args.seed)
    phi_empty, fv = scoring_constants(g)
    f = phi_empty - phi_total(g, filters)
    obj = {
        "algorithm": args.algo,
        "k": args.k,
        "seed": args.seed if args.algo in RANDOMIZED_ALGORITHMS else None,
        "filters": g.sorted_labels(filters),
        "f": f,
        "fr": round(float(ratio(f, fv)), 6),
    }
    _json_out(obj, args, args.json)
    return 0


def _cmd_evaluate(args) -> int:
    g = _load_graph(args)
    labels = sorted({s for s in args.filters.split(",") if s})
    members = frozenset(g.index(lab) for lab in labels)
    phi_empty, fv = scoring_constants(g)
    f = phi_empty - phi_total(g, members)
    obj = {
        "filters": labels,
        "phi_no_filters": phi_empty,
        "phi": phi_empty - f,
        "f": f,
        "fr": round(float(ratio(f, fv)), 6),
    }
    _json_out(obj, args, args.json)
    return 0


def _cmd_oracle(args) -> int:
    g = _load_graph(args)
    filters, f = oracle(g, args.k, args.budget)
    _, fv = scoring_constants(g)
    obj = {
        "k": args.k,
        "filters": g.sorted_labels(filters),
        "f": f,
        "fr": round(float(ratio(f, fv)), 6),
    }
    _json_out(obj, args, args.json)
    return 0


def _cmd_fr_curve(args) -> int:
    g = _load_graph(args)
    curve = fr_curve(g, args.algos, args.kmax, args.runs, args.seed)
    _write_with_manifest(args.csv, curve_to_csv(curve), args)
    if args.json:
        _json_out(curve_to_json_obj(curve), args, args.json)
    print(f"wrote {args.csv}: {len(curve)} rows")
    return 0


def _cmd_validate(args) -> int:
    g = _load_graph(args)
    try:
        topological_order(g)
        acyclic, cycle = True, None
    except CycleError as exc:
        acyclic, cycle = False, exc.cycle
    obj = {
        "nodes": g.n,
        "edges": g.m,
        "sources": sorted(g.labels[s] for s in g.sources),
        "acyclic": acyclic,
        "cycle": cycle,
    }
    _json_out(obj, args, None)
    return 0


def _int_at_least(low: int):
    """argparse type: an int >= ``low``; a smaller one is a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse reports a non-number as "invalid int value"
    return parse


def _positive_float(text: str) -> float:
    """argparse type: a finite float > 0; anything else is a usage error."""
    value = float(text)
    if not 0 < value < math.inf:  # also false for NaN
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return value


_positive_float.__name__ = "float"  # a non-number reads "invalid float value"


def _algorithm_names(text: str) -> list[str]:
    """argparse type: one or more distinct comma-separated names from ALGORITHMS."""
    names = [a for a in text.split(",") if a]
    if not names or any(a not in ALGORITHMS for a in names):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated names from {', '.join(ALGORITHMS)}; got {text!r}"
        )
    if len(set(names)) < len(names):
        raise argparse.ArgumentTypeError(f"repeated algorithm name in {text!r}")
    return names


def _add_input_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="edge-list TSV file")
    p.add_argument("--source", help="source node label (default: in-degree-0 nodes)")
    p.add_argument(
        "--super-source",
        action="store_true",
        help="join multiple sources under one synthetic source",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowfilter",
        description="Filter placement for redundancy elimination in "
        "directed information-flow graphs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a layered benchmark graph")
    p.add_argument("--levels", type=_int_at_least(2), default=10)
    p.add_argument("--width", type=_int_at_least(1), default=100)
    p.add_argument("--x", type=_positive_float, default=1.0)
    p.add_argument("--y", type=_positive_float, default=4.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output TSV path")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("extract-dag", help="extract a maximal acyclic subgraph")
    _add_input_opts(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--root", help="extraction root label")
    group.add_argument(
        "--best-root", action="store_true", help="try every root, keep the largest DAG"
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_extract_dag)

    p = sub.add_parser("place", help="choose filter nodes")
    _add_input_opts(p)
    p.add_argument("--algo", required=True, choices=ALGORITHMS)
    p.add_argument("--k", type=_int_at_least(0), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_place)

    p = sub.add_parser("evaluate", help="receipts and objective for given filters")
    _add_input_opts(p)
    p.add_argument("--filters", default="", help="comma-separated node labels")
    p.add_argument("--json", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("oracle", help="exhaustive best filter set of size <= k")
    _add_input_opts(p)
    p.add_argument("--k", type=_int_at_least(0), required=True)
    p.add_argument("--budget", type=_int_at_least(0), default=10**6)
    p.add_argument("--json", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("fr-curve", help="filter ratio per algorithm and k")
    _add_input_opts(p)
    p.add_argument(
        "--algos",
        type=_algorithm_names,
        required=True,
        help="comma-separated algorithm names",
    )
    p.add_argument("--kmax", type=_int_at_least(1), required=True)
    p.add_argument("--runs", type=_int_at_least(1), default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", required=True, help="output CSV path")
    p.add_argument("--json", help="also write full per-cell results")
    p.set_defaults(func=_cmd_fr_curve)

    p = sub.add_parser("validate", help="parse a graph and report its shape")
    _add_input_opts(p)
    p.set_defaults(func=_cmd_validate)

    return parser


DAG_COMMANDS = {"place", "evaluate", "oracle", "fr-curve"}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = list(argv)
    try:
        return args.func(args)
    except CycleError as exc:
        if args.command in DAG_COMMANDS:
            print(f"flowfilter: error: {DAG_HINT} ({exc})", file=sys.stderr)
        else:
            print(f"flowfilter: error: {exc}", file=sys.stderr)
        return 1
    except (GraphError, BudgetExceededError, ValueError, OSError) as exc:
        print(f"flowfilter: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
