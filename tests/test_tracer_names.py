"""The benchmark's tracer patches flowfilter functions by name.

``perfbench/tracer.py`` looks each name up with no default, so a renamed or
deleted function would fail only the benchmark's traced runs; this test
fails first.  It reads ``TRACED`` from the file without importing it.
"""

import ast
import importlib
from pathlib import Path

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
