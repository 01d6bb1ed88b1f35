"""Smoke test of the benchmark: toy sizes through the same code paths.

Checks that every metric named in BENCHMARK.json is printed for every
workload, with its unit, and that no operation fails.  Run with
``python3 -m pytest perfbench/test_smoke.py``.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_smoke(trace: int) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit(trace, section):
    lines = run_smoke(trace)
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = [m["name"] for m in SPEC[section]]
    for wl in WORKLOADS:
        assert f"{wl}  error_rate = 0 (0 failed / " in "\n".join(lines)
        assert result["metrics"][f"{wl}.error_rate"]["value"] == 0
        got = {k.split(".", 1)[1] for k in result["metrics"] if k.startswith(wl + ".")}
        assert got == set(names) | {"error_rate"}
        for m in SPEC[section]:
            printed = re.compile(rf"{re.escape(wl)}  {re.escape(m['name'])} = \S+ "
                                 rf"{re.escape(m['unit'])}( |$)")
            assert any(printed.match(line) for line in lines), (wl, m["name"])
            assert result["metrics"][f"{wl}.{m['name']}"]["unit"] == m["unit"]

