"""The benchmark's tracer patches flowfilter functions by name.

``perfbench/tracer.py`` looks each name up with no default, so a renamed or
deleted function would fail only the benchmark's traced runs;
``test_every_traced_name_resolves`` fails first.  It reads ``TRACED`` from
the file without importing it.  A name that resolves can still be one the
CLI no longer calls, which leaves its per-layer numbers at 0, so
``test_tracer_sees_the_greedies_of_an_fr_curve`` loads the tracer from its
file and checks that an FR curve of the four greedies reaches each of them
by the name it traces.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

from flowfilter import cli
from flowfilter.graph import serialize_edge_list
from flowfilter.synth import LayeredConfig, layered_graph

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_names() -> tuple:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED in {TRACER}")


def test_every_traced_name_resolves():
    traced = traced_names()
    assert traced
    for module, name, _ in traced:
        assert callable(getattr(importlib.import_module(module), name, None)), (module, name)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_the_greedies_of_an_fr_curve(tmp_path):
    tracer = _load_tracer()
    graph = tmp_path / "g.tsv"
    graph.write_text(serialize_edge_list(layered_graph(LayeredConfig(4, 8, 1.0, 4.0, seed=3))))
    argv = ["fr-curve", "--input", str(graph), "--source", "s",
            "--algos", "greedy-1,greedy-max,greedy-l,greedy-all", "--kmax", "3",
            "--csv", str(tmp_path / "fr.csv")]
    with tracer.Tracer() as t:
        assert cli.main(argv) == 0
    got = tracer.summarize(t.spans)
    for name in ("greedy_1", "greedy_max", "greedy_l", "greedy_all"):
        assert got[f"placement.{name}.calls"] >= 1, name
    assert got["placement.greedy_all.rounds"] >= 1
