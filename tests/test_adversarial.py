"""Adversarial shapes through the CLI.

Each command runs ``cli.main`` in a child interpreter whose address space
is capped at 512 MiB (``RLIMIT_AS``), so a shape that makes some layer
quadratic in memory fails here rather than on a user's machine.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flowfilter

LIMIT = 512 * 2**20
# the child caps its own address space, then runs the CLI on its arguments
CHILD = (
    "import resource, sys; "
    f"resource.setrlimit(resource.RLIMIT_AS, ({LIMIT}, {LIMIT})); "
    "from flowfilter.cli import main; sys.exit(main(sys.argv[1:]))"
)
ENV = {**os.environ, "PYTHONPATH": str(Path(flowfilter.__file__).parents[1])}


def _fan_in(width: int) -> str:
    """s -> m_i -> z for i < width, then z -> out."""
    return "".join(f"s\tm{i}\nm{i}\tz\n" for i in range(width)) + "z\tout\n"


def _diamonds(count: int) -> str:
    """s -> a0, b0; a_i, b_i -> j_i; j_i -> a_{i+1}, b_{i+1}: path counts
    double at every diamond."""
    heads = ["s"] + [f"j{i}" for i in range(count - 1)]
    return "".join(
        f"{h}\ta{i}\n{h}\tb{i}\na{i}\tj{i}\nb{i}\tj{i}\n" for i, h in enumerate(heads)
    )


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("shapes")
    (root / "fan-in.tsv").write_text(_fan_in(10**5))
    (root / "diamonds.tsv").write_text(_diamonds(2000))
    return root


def _cli(*argv: str) -> str:
    run = subprocess.run(
        [sys.executable, "-c", CHILD, *argv],
        capture_output=True, text=True, env=ENV, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


@pytest.mark.parametrize("shape, nodes, edges", [("fan-in", 100003, 200001), ("diamonds", 6001, 8000)])
def test_validate_reports_the_shape(inputs, shape, nodes, edges):
    got = json.loads(_cli("validate", "--input", str(inputs / f"{shape}.tsv")))
    assert got == {"nodes": nodes, "edges": edges, "sources": ["s"], "acyclic": True, "cycle": None}


def test_place_on_a_wide_fan_in_filters_its_merge(inputs):
    got = json.loads(_cli("place", "--input", str(inputs / "fan-in.tsv"), "--algo", "greedy-all", "--k", "3"))
    assert (got["filters"], got["f"]) == (["z"], 99999)


def test_place_on_a_diamond_chain_keeps_exact_counts(inputs):
    got = json.loads(_cli("place", "--input", str(inputs / "diamonds.tsv"), "--algo", "greedy-all", "--k", "3"))
    assert got["filters"] == ["j1499", "j499", "j999"]
    assert got["f"].bit_length() == 2002


@pytest.mark.parametrize("shape", ["fan-in", "diamonds"])
def test_fr_curve_runs_every_cheap_algorithm(inputs, shape, tmp_path):
    csv = tmp_path / "curve.csv"
    _cli(
        "fr-curve", "--input", str(inputs / f"{shape}.tsv"),
        "--algos", "greedy-1,greedy-max,greedy-l,greedy-all,rand-k",
        "--kmax", "3", "--runs", "5", "--csv", str(csv),
    )
    rows = csv.read_text().splitlines()[1:]
    assert [r.split(",")[:2] for r in rows] == [
        [a, str(k)] for a in ("greedy-1", "greedy-max", "greedy-l", "greedy-all", "rand-k") for k in (1, 2, 3)
    ]
