"""Outside-in tracing of flowfilter's public functions.

The program is not modified: each traced function is replaced, for the
duration of a ``with Tracer(...)`` block, by a wrapper in every
``flowfilter.*`` module that binds it by name.  Nested calls such as
``harness -> objective_f -> simulate`` are therefore attributed even though
the callers imported the function directly.

Spans are kept in memory as ``[name, start, end, parent, args]`` and turned
into per-layer numbers after the pass; ``args`` is kept only for the
functions whose useful-work ratio needs them, and their keys are computed
after the pass, so key hashing costs nothing inside the timed spans.
"""

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# (home module, function name, metric prefix).  The home module is where
# the function is defined; every other flowfilter module that imported it
# by name is patched too.
TRACED = (
    ("flowfilter.graph", "parse_edge_list", "graph.parse_edge_list"),
    ("flowfilter.graph", "build_graph", "graph.build_graph"),
    ("flowfilter.graph", "topological_order", "graph.topological_order"),
    ("flowfilter.propagation", "simulate", "propagation.simulate"),
    ("flowfilter.propagation", "objective_f", "propagation.objective_f"),
    ("flowfilter.path_stats", "compute_stats", "path_stats.compute_stats"),
    ("flowfilter.path_stats", "compute_prefix", "path_stats.compute_prefix"),
    ("flowfilter.path_stats", "impact_table", "path_stats.impact_table"),
    ("flowfilter.placement", "greedy_all", "placement.greedy_all"),
    ("flowfilter.placement", "greedy_max", "placement.greedy_max"),
    ("flowfilter.placement", "greedy_l", "placement.greedy_l"),
    ("flowfilter.placement", "greedy_1", "placement.greedy_1"),
    ("flowfilter.placement", "randomized_baseline", "placement.randomized_baseline"),
    ("flowfilter.placement", "as_ctree", "placement.as_ctree"),
    ("flowfilter.placement", "tree_dp", "placement.tree_dp"),
    ("flowfilter.harness", "fr_curve", "harness.fr_curve"),
    ("flowfilter.harness", "max_objective", "harness.max_objective"),
    ("flowfilter.harness", "run_algorithm", "harness.run_algorithm"),
    ("flowfilter.dag_extract", "best_dag", "dag_extract.best_dag"),
    ("flowfilter.dag_extract", "extract_dag", "dag_extract.extract_dag"),
    ("flowfilter.dag_extract", "dfs_annotate", "dag_extract.dfs_annotate"),
    ("flowfilter.synth", "layered_graph", "synth.layered_graph"),
    ("flowfilter.cli", "main", "cli.main"),
)

# tree_dp is reported per input; the benchmark names the input in ``tag``.
TREE_DP_INPUTS = ("deep", "bushy")
KEEP_ARGS = {"graph.topological_order", "propagation.simulate", "harness.run_algorithm"}


def layer_names() -> list[str]:
    """Every span name a trace can report, in a fixed order."""
    names = []
    for _, _, prefix in TRACED:
        if prefix == "placement.tree_dp":
            names += [f"{prefix}.{tag}" for tag in TREE_DP_INPUTS]
        else:
            names.append(prefix)
    return names


class Tracer:
    """Patches the traced functions on enter and restores them on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.tag: str | None = None
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for home, _, _ in TRACED:
            importlib.import_module(home)  # cli imports synth only when generating
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if (name == "flowfilter" or name.startswith("flowfilter.")) and mod
        ]
        for home, attr, prefix in TRACED:
            original = getattr(sys.modules[home], attr)
            wrapper = self._wrap(prefix, original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, prefix: str, fn):
        spans, stack = self.spans, self.stack
        keep_args = prefix in KEEP_ARGS
        per_input = prefix == "placement.tree_dp"
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = f"{prefix}.{self.tag}" if per_input else prefix
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, args if keep_args else None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()


def _graph_key(g, cache: dict) -> int:
    # Content identity: every CLI call parses its own CGraph object, so
    # object identity would count one graph once per call.
    hit = cache.get(id(g))
    if hit is None:
        hit = cache[id(g)] = (g, hash((g.labels, g.edges)))
    return hit[1]


def summarize(spans: list[list], pass_start: int = 0) -> dict[str, float]:
    """Per-layer metrics of one traced iteration.

    For each span name: ``calls``, ``total_s`` and ``self_s`` (total minus
    the time covered by its direct wrapped children).  Also the useful-work
    ratios and greedy_all's round count.  ``cli_self_s`` is cli.main's self
    time in the spans from index ``pass_start`` on (the timed pipeline pass).
    """
    total = defaultdict(float)
    child = defaultdict(float)
    calls = defaultdict(int)
    for name, start, end, parent, _ in spans:
        dur = end - start
        total[name] += dur
        calls[name] += 1
        if parent >= 0:
            child[parent] += dur
    self_s = defaultdict(float)
    cli_self = 0.0
    for i, (name, start, end, _, _) in enumerate(spans):
        own = (end - start) - child[i]
        self_s[name] += own
        if i >= pass_start and name == "cli.main":
            cli_self += own

    out: dict[str, float] = {}
    for name in layer_names():
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.total_s"] = total[name]
        out[f"{name}.self_s"] = self_s[name]

    from flowfilter.propagation import filter_members

    cache: dict = {}
    topo = {_graph_key(s[4][0], cache) for s in spans if s[0] == "graph.topological_order"}
    sims = {
        (_graph_key(s[4][0], cache), filter_members(s[4][1]))
        for s in spans
        if s[0] == "propagation.simulate"
    }
    runs = {
        (_graph_key(s[4][0], cache), s[4][1], s[4][2], s[4][3] if len(s[4]) > 3 else 0)
        for s in spans
        if s[0] == "harness.run_algorithm"
    }
    for name, distinct in (
        ("graph.topological_order", topo),
        ("propagation.simulate", sims),
        ("harness.run_algorithm", runs),
    ):
        n = calls[name]
        out[f"{name}.useful_ratio"] = len(distinct) / n if n else 0.0
    out["placement.greedy_all.rounds"] = sum(
        1
        for name, _, _, parent, _ in spans
        if name == "path_stats.impact_table"
        and parent >= 0
        and spans[parent][0] == "placement.greedy_all"
    )
    out["cli_self_s"] = cli_self
    return out


def write_spans(path, iterations: list[list[list]]) -> None:
    """Write each traced iteration's spans as JSON lines."""
    with open(path, "w") as fh:
        for i, spans in enumerate(iterations):
            for j, (name, start, end, parent, _) in enumerate(spans):
                rec = {"iteration": i, "id": j, "name": name, "start": start,
                       "end": end, "parent": parent}
                fh.write(json.dumps(rec) + "\n")
