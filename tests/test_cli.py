import hashlib
import json
import os
import random
import time

import pytest

from _oracles import random_dag
from flowfilter import path_stats
from flowfilter.cli import main
from fixtures import FANIN_TSV, DEGREE_TRAP_TSV, g_diamond_chain, g_tree1
from flowfilter.graph import CGraph, serialize_edge_list
from flowfilter.harness import ALGORITHMS, RANDOMIZED_ALGORITHMS


@pytest.fixture
def fanin_path(tmp_path):
    p = tmp_path / "fanin.tsv"
    p.write_text(FANIN_TSV)
    return p


@pytest.fixture
def degree_trap_path(tmp_path):
    p = tmp_path / "degree_trap.tsv"
    p.write_text(DEGREE_TRAP_TSV)
    return p


def test_place_greedy_all_writes_expected_json(fanin_path, tmp_path):
    out = tmp_path / "out.json"
    rc = main(
        [
            "place",
            "--input", str(fanin_path),
            "--source", "s",
            "--algo", "greedy-all",
            "--k", "1",
            "--json", str(out),
        ]
    )
    assert rc == 0
    got = json.loads(out.read_text())
    assert got["filters"] == ["z2"]
    assert got["f"] == 1
    assert got["fr"] == 1.0
    manifest = json.loads((tmp_path / "out.json.manifest.json").read_text())
    assert manifest["command"] == "place"
    assert manifest["tool"] == "flowfilter"


def test_place_is_reproducible_byte_for_byte(fanin_path, tmp_path):
    argv = [
        "place",
        "--input", str(fanin_path),
        "--source", "s",
        "--algo", "rand-k",
        "--k", "2",
        "--seed", "7",
        "--json", str(tmp_path / "a.json"),
    ]
    main(argv)
    main(argv[:-1] + [str(tmp_path / "b.json")])
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_generate_writes_graph_and_manifest(tmp_path):
    out = tmp_path / "synth.tsv"
    argv = [
        "generate",
        "--levels", "3",
        "--width", "4",
        "--x", "1",
        "--y", "4",
        "--seed", "7",
        "--out", str(out),
    ]
    assert main(argv) == 0
    assert out.exists()
    manifest = json.loads((tmp_path / "synth.tsv.manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert manifest["argv"] == argv
    assert manifest["output"] == str(out)
    first = out.read_bytes()
    assert main(argv) == 0  # replay: identical bytes
    assert out.read_bytes() == first


@pytest.mark.parametrize("y, edges", [("1e200", 1), ("1e-300", 10)])
def test_generate_extreme_y(tmp_path, capsys, y, edges):
    # y**2 overflows (1e200) or underflows to 0.0 (1e-300): both finite
    # inputs pass validation and take the probability's limit, 0 or 1.
    # Seed 0 puts n2 on level 0, n4 on level 2 and the rest on level 1, so
    # at 1e-300 every cross-level pair is an edge: s -> n2, 5 + 4 more.
    out = tmp_path / "g.tsv"
    argv = ["generate", "--levels", "3", "--width", "2", "--y", y, "--out", str(out)]
    assert main(argv) == 0
    assert f": 7 nodes, {edges} edges" in capsys.readouterr().out
    assert len(out.read_text().splitlines()) == edges


def test_generate_then_place_pipeline(tmp_path):
    out = tmp_path / "g.tsv"
    main(["generate", "--levels", "3", "--width", "5", "--seed", "1", "--out", str(out)])
    rc = main(
        [
            "place",
            "--input", str(out),
            "--source", "s",
            "--algo", "greedy-1",
            "--k", "2",
            "--json", str(tmp_path / "p.json"),
        ]
    )
    assert rc == 0
    assert len(json.loads((tmp_path / "p.json").read_text())["filters"]) <= 2


def test_evaluate_reports_phi_and_f(fanin_path, capsys):
    rc = main(
        ["evaluate", "--input", str(fanin_path), "--source", "s", "--filters", "z2"]
    )
    assert rc == 0
    got = json.loads(capsys.readouterr().out)
    assert got == {
        "filters": ["z2"],
        "phi_no_filters": 10,
        "phi": 9,
        "f": 1,
        "fr": 1.0,
    }


def test_leading_bom_is_not_part_of_the_first_label(fanin_path, tmp_path, capsys):
    # read with the locale's codec, a BOM would make the first label
    # "\ufeffs", a second source that silently takes the edge s -> x
    bom = tmp_path / "fanin-bom.tsv"
    bom.write_bytes(b"\xef\xbb\xbf" + fanin_path.read_bytes())
    for argv in (["validate"], ["evaluate", "--source", "s", "--filters", "z2"]):
        outs = []
        for path in (fanin_path, bom):
            assert main(argv + ["--input", str(path)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1], argv


def test_evaluate_reports_each_label_once(fanin_path, capsys):
    argv = ["evaluate", "--input", str(fanin_path), "--filters"]
    assert main(argv + ["z2,z2"]) == 0
    twice = json.loads(capsys.readouterr().out)
    assert main(argv + ["z2"]) == 0
    assert twice == json.loads(capsys.readouterr().out)
    assert twice["filters"] == ["z2"]


def test_place_seed_reported_only_for_randomized_algorithms(tmp_path, capsys):
    path = tmp_path / "tree1.tsv"
    path.write_text(serialize_edge_list(g_tree1()))
    for algo in ALGORITHMS:
        argv = ["place", "--input", str(path), "--algo", algo, "--k", "1", "--seed", "9"]
        assert main(argv) == 0, algo
        got = json.loads(capsys.readouterr().out)
        assert got["seed"] == (9 if algo in RANDOMIZED_ALGORITHMS else None), algo


def test_place_tree_dp_huge_k_matches_k_of_node_count(tmp_path, capsys):
    # budgets past the 4 non-source nodes buy nothing, so tree-dp must not
    # build 100001-wide tables
    path = tmp_path / "tree1.tsv"
    path.write_text(serialize_edge_list(g_tree1()))
    argv = ["place", "--input", str(path), "--algo", "tree-dp", "--k"]
    assert main(argv + ["4"]) == 0
    want = json.loads(capsys.readouterr().out)
    start = time.perf_counter()
    assert main(argv + ["100000"]) == 0
    assert time.perf_counter() - start < 5.0
    got = json.loads(capsys.readouterr().out)
    assert got["k"] == 100000
    assert {**got, "k": 4} == want


def test_oracle_command(degree_trap_path, capsys):
    rc = main(["oracle", "--input", str(degree_trap_path), "--source", "s", "--k", "1"])
    assert rc == 0
    got = json.loads(capsys.readouterr().out)
    assert got["filters"] == ["A"]
    assert got["f"] == 2


def test_fr_curve_degree_trap_contrast(degree_trap_path, tmp_path):
    csv_path = tmp_path / "curve.csv"
    rc = main(
        [
            "fr-curve",
            "--input", str(degree_trap_path),
            "--source", "s",
            "--algos", "greedy-1,greedy-all",
            "--kmax", "1",
            "--csv", str(csv_path),
        ]
    )
    assert rc == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "algorithm,k,fr,runs,wall_ms"
    rows = {l.split(",")[0]: l.split(",") for l in lines[1:]}
    assert rows["greedy-1"][2] == "0.000000"
    assert rows["greedy-all"][2] == "1.000000"
    assert (tmp_path / "curve.csv.manifest.json").exists()


def test_fr_curve_replay_identical_up_to_wall_times(degree_trap_path, tmp_path):
    argv = [
        "fr-curve",
        "--input", str(degree_trap_path),
        "--source", "s",
        "--algos", "greedy-all,rand-i",
        "--kmax", "2",
        "--runs", "3",
        "--seed", "5",
    ]
    main(argv + ["--csv", str(tmp_path / "a.csv")])
    main(argv + ["--csv", str(tmp_path / "b.csv")])
    strip = lambda p: [
        line.rsplit(",", 1)[0] for line in p.read_text().splitlines()
    ]  # wall_ms is measurement, everything else must match exactly
    assert strip(tmp_path / "a.csv") == strip(tmp_path / "b.csv")


def test_extract_dag_on_cyclic_input(tmp_path):
    src = tmp_path / "cyc.tsv"
    src.write_text("s\ta\na\tb\nb\ta\n")
    out = tmp_path / "dag.tsv"
    rc = main(
        [
            "extract-dag",
            "--input", str(src),
            "--root", "s",
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert out.read_text() == "a\tb\ns\ta\n"


def test_extract_dag_best_root(tmp_path):
    src = tmp_path / "cyc.tsv"
    src.write_text("a\tb\nb\ta\n")
    out = tmp_path / "dag.tsv"
    rc = main(["extract-dag", "--input", str(src), "--best-root", "--out", str(out)])
    assert rc == 0
    assert out.read_text() == "a\tb\n"


@pytest.mark.parametrize(
    "opts",
    [
        ["--source", "b", "--root", "a"],  # a source hint the root would ignore
        ["--super-source", "--root", "a"],  # a root needs no joined source
        ["--super-source", "--best-root"],  # it would root the DAG at __super__
    ],
)
def test_extract_dag_takes_no_source_options(opts, tmp_path, capsys):
    """The root, not a source, is where ``extract-dag`` starts: a source
    option is a usage error, before anything is read or written."""
    src = tmp_path / "ring.tsv"
    src.write_text("a\tb\nb\tc\nc\ta\nx\ta\ny\tb\n")
    with pytest.raises(SystemExit) as exc:
        main(["extract-dag", "--input", str(src), *opts, "--out", str(tmp_path / "dag.tsv")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {opts[0]}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [src]


_NO_EDGES = "flowfilter: error: an edge list cannot hold a graph with no edges; not writing "


@pytest.mark.parametrize("seed", [0, 5, 9])
def test_generate_without_edges_writes_nothing(seed, tmp_path, capsys):
    # both nodes land on level 1: no edge leaves s, and no pair spans two levels
    out = tmp_path / "g.tsv"
    argv = ["generate", "--levels", "2", "--width", "1", "--seed", str(seed), "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"{_NO_EDGES}{out}\n"
    assert list(tmp_path.iterdir()) == []  # no file, no manifest


def test_extract_dag_from_a_sink_writes_nothing(tmp_path, capsys):
    src = tmp_path / "g.tsv"
    src.write_text("s\ta\ns\tb\na\tc\nb\tc\nc\td\n")
    out = tmp_path / "dag.tsv"
    assert main(["extract-dag", "--input", str(src), "--root", "d", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"{_NO_EDGES}{out}\n"
    assert list(tmp_path.iterdir()) == [src]


def test_extract_dag_of_a_label_an_edge_list_cannot_hold_writes_nothing(tmp_path, capsys):
    # the parser drops one byte-order mark, so a doubled one leaves U+FEFF
    # leading the first label, which a written file would lose
    src = tmp_path / "g.tsv"
    src.write_text("\ufeff\ufeffa\tb\nb\tc\n", encoding="utf-8")
    out = tmp_path / "dag.tsv"
    assert main(["extract-dag", "--input", str(src), "--best-root", "--out", str(out)]) == 1
    err = "flowfilter: error: an edge list cannot hold the label '\\ufeffa'\n"
    assert capsys.readouterr().err == err
    assert list(tmp_path.iterdir()) == [src]


def test_place_on_cyclic_input_hints_extract_dag(tmp_path, capsys):
    src = tmp_path / "cyc.tsv"
    src.write_text("s\ta\na\tb\nb\ta\n")
    rc = main(
        ["place", "--input", str(src), "--source", "s", "--algo", "greedy-all", "--k", "1"]
    )
    assert rc == 1
    assert "extract-dag" in capsys.readouterr().err


def test_place_multi_source_needs_super_source_flag(tmp_path, capsys):
    src = tmp_path / "multi.tsv"
    src.write_text("r1\tx\nr2\tx\nx\ty\n")
    rc = main(["place", "--input", str(src), "--algo", "greedy-all", "--k", "1"])
    assert rc == 1
    assert "source" in capsys.readouterr().err
    rc = main(
        [
            "place",
            "--input", str(src),
            "--super-source",
            "--algo", "greedy-all",
            "--k", "1",
        ]
    )
    assert rc == 0
    got = json.loads(capsys.readouterr().out)
    assert got["filters"] == ["x"]
    assert got["f"] == 1  # y stops receiving the duplicate


_ONE_SOURCE = "propagation needs exactly one source, got {}; apply add_super_source first"
_BAD_GRAPHS = {
    "two-sources": ("a\tc\nb\tc\nc\td\n", _ONE_SOURCE.format(2)),
    "sourceless-cycle": ("a\tb\nb\tc\nc\ta\nc\td\n", _ONE_SOURCE.format(0)),
    "cycle-below-source": (
        "s\ta\na\tb\nb\ta\nb\tc\n",
        "input graph is cyclic; run `flowfilter extract-dag` on it first "
        "(directed cycle: a -> b -> a)",
    ),
}


@pytest.mark.parametrize("graph", _BAD_GRAPHS)
@pytest.mark.parametrize(
    "argv",
    [
        ["fr-curve", "--algos", "tree-dp", "--kmax", "2"],
        ["fr-curve", "--algos", "greedy-all", "--kmax", "2"],
        ["fr-curve", "--algos", "rand-k", "--kmax", "2"],
        # the graph is checked before the budget
        ["oracle", "--k", "3", "--budget", "1"],
        # and before any algorithm runs
        *(["place", "--algo", name, "--k", "1"] for name in ALGORITHMS),
    ],
    ids=[
        "fr-curve-tree-dp", "fr-curve-greedy-all", "fr-curve-rand-k", "oracle",
        *(f"place-{name}" for name in ALGORITHMS),
    ],
)
def test_bad_graphs_fail_on_the_graph_check_first(argv, graph, tmp_path, capsys):
    # scoring checks the graph before any algorithm is set up or any pick made
    text, message = _BAD_GRAPHS[graph]
    src = tmp_path / "g.tsv"
    src.write_text(text)
    if argv[0] == "fr-curve":
        argv = argv + ["--csv", str(tmp_path / "fr.csv")]
    assert main(argv + ["--input", str(src)]) == 1
    assert capsys.readouterr().err == f"flowfilter: error: {message}\n"


def test_validate_reports_shape(fanin_path, capsys):
    rc = main(["validate", "--input", str(fanin_path)])
    assert rc == 0
    got = json.loads(capsys.readouterr().out)
    assert got == {
        "nodes": 7,
        "edges": 9,
        "sources": ["s"],
        "acyclic": True,
        "cycle": None,
    }


def test_validate_reports_cycle(tmp_path, capsys):
    src = tmp_path / "cyc.tsv"
    src.write_text("a\tb\nb\tc\nc\ta\n")
    rc = main(["validate", "--input", str(src)])
    assert rc == 0
    got = json.loads(capsys.readouterr().out)
    assert got["acyclic"] is False
    assert set(got["cycle"]) == {"a", "b", "c"}


def test_unknown_filter_label_is_data_error(fanin_path, capsys):
    rc = main(
        ["evaluate", "--input", str(fanin_path), "--source", "s", "--filters", "nope"]
    )
    assert rc == 1
    assert "nope" in capsys.readouterr().err


def test_missing_input_file_is_data_error(tmp_path, capsys):
    rc = main(["validate", "--input", str(tmp_path / "absent.tsv")])
    assert rc == 1


@pytest.mark.parametrize("brk", ["\n", "\r\n", "\r"])
def test_undecodable_input_names_its_line(brk, tmp_path, capsys):
    src = tmp_path / "bad.tsv"
    src.write_bytes(f"s\ta{brk}a\tb{brk}".encode() + b"\xffb\tc" + brk.encode())
    assert main(["validate", "--input", str(src)]) == 1
    err = capsys.readouterr().err
    assert err == "flowfilter: error: line 3: byte 0xff is not UTF-8 (invalid start byte)\n"


def test_no_command_reads_the_edges_property(tmp_path, capsys, monkeypatch):
    """Every command reads a graph's edges from its adjacency lists."""

    def unread(g):
        raise AssertionError("CGraph.edges was read")

    monkeypatch.setattr(CGraph, "edges", property(unread))
    gen, cyclic, two = tmp_path / "gen.tsv", tmp_path / "cyclic.tsv", tmp_path / "two.tsv"
    cyclic.write_text("a\tb\nb\tc\nc\ta\nc\td\n")
    two.write_text("a\tc\nb\tc\nc\td\n")
    super_runs = [
        ["place", "--algo", "greedy-all", "--k", "1"],
        ["evaluate", "--filters", "c"],
        ["oracle", "--k", "1"],
        ["fr-curve", "--algos", "greedy-all,rand-k", "--kmax", "1", "--runs", "2",
         "--csv", str(tmp_path / "fr.csv")],
    ]
    runs = [
        ["generate", "--levels", "3", "--width", "4", "--x", "1", "--y", "4",
         "--seed", "7", "--out", str(gen)],
        ["validate", "--input", str(gen)],
        ["extract-dag", "--input", str(cyclic), "--root", "b", "--out", str(tmp_path / "b.tsv")],
        ["extract-dag", "--input", str(cyclic), "--best-root", "--out", str(tmp_path / "d.tsv")],
        *(argv + ["--input", str(two), "--super-source"] for argv in super_runs),
    ]
    for argv in runs:
        assert main(argv) == 0, (argv, capsys.readouterr().err)


def test_memory_error_is_one_line_and_writes_nothing(degree_trap_path, tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("flowfilter.cli.fr_curve", exhausted)
    csv = tmp_path / "curve.csv"
    argv = ["fr-curve", "--input", str(degree_trap_path), "--algos", "greedy-1", "--kmax", "2", "--csv", str(csv)]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "flowfilter: error: out of memory\n")
    assert sorted(tmp_path.iterdir()) == [degree_trap_path]


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["place", "--algo", "greedy-all"])  # missing required flags
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["place", "--algo", "greedy-all", "--k", "-1"],
        ["oracle", "--k", "-1"],
        ["oracle", "--k", "1", "--budget", "-1"],
        ["fr-curve", "--algos", "greedy-all", "--kmax", "-3"],
        ["fr-curve", "--algos", "greedy-all", "--kmax", "0"],
        ["fr-curve", "--algos", "rand-k", "--kmax", "1", "--runs", "0"],
        ["fr-curve", "--algos", "greedy-all,greedy-42", "--kmax", "1"],
        ["fr-curve", "--algos", ",", "--kmax", "1"],
        ["generate", "--levels", "1"],
        ["generate", "--width", "0"],
        ["generate", "--x", "0"],
        ["generate", "--y", "-1"],
        ["generate", "--x", "nan"],
        ["generate", "--y", "inf"],
        ["fr-curve", "--algos", "greedy-1,greedy-1", "--kmax", "1"],
        ["fr-curve", "--algos", "greedy-1", "--kmax", "1", "--json", "./curve.csv"],
        # neither output may name the other's manifest
        ["fr-curve", "--algos", "greedy-1", "--kmax", "1", "--json", "./curve.csv.manifest.json"],
        ["fr-curve", "--algos", "greedy-1", "--kmax", "1", "--csv", "x.manifest.json", "--json", "x"],
    ],
)
def test_out_of_range_arguments_exit_2(argv, degree_trap_path, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # so a relative path can name a file in tmp_path
    if argv[0] == "generate":
        extra = ["--out", str(tmp_path / "g.tsv")]
    else:
        extra = ["--input", str(degree_trap_path)]
        if argv[0] == "fr-curve" and "--csv" not in argv:
            extra += ["--csv", str(tmp_path / "curve.csv")]
    with pytest.raises(SystemExit) as exc:
        main(argv + extra)
    assert exc.value.code == 2
    assert f"flowfilter {argv[0]}: error: argument" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [degree_trap_path]  # nothing written


@pytest.mark.parametrize(
    "name, argv",
    [
        ("g.tsv", ["extract-dag", "--best-root", "--out", "g.tsv"]),
        ("g.tsv", ["place", "--algo", "greedy-1", "--k", "1", "--json", "g.tsv"]),
        ("g.tsv", ["evaluate", "--filters", "x", "--json", "./g.tsv"]),
        ("g.tsv", ["oracle", "--k", "1", "--json", "sub/../g.tsv"]),
        ("g.tsv", ["fr-curve", "--algos", "greedy-1", "--kmax", "1", "--csv", "g.tsv"]),
        ("g.tsv", ["fr-curve", "--algos", "greedy-1", "--kmax", "1", "--csv", "c", "--json", "g.tsv"]),
        # the manifest written next to an output may not replace the input either
        ("o.json.manifest.json", ["place", "--algo", "tree-dp", "--k", "1", "--json", "o.json"]),
    ],
)
def test_no_output_may_replace_the_input(name, argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the outputs are relative paths
    (tmp_path / "sub").mkdir()
    source = tmp_path / name
    source.write_text(FANIN_TSV)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--input", str(source)])
    assert exc.value.code == 2
    assert "it or its manifest is the --input file" in capsys.readouterr().err
    assert source.read_text() == FANIN_TSV  # byte for byte: nothing was written
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([name, "sub"])


def test_an_output_under_a_missing_directory_is_not_the_input(tmp_path, capsys, monkeypatch):
    """``missing/../g.tsv`` resolves to the input's path, but only an
    existing directory can be walked through: the output is a file of its
    own, so writing it fails (exit 1), not the usage check (exit 2)."""
    monkeypatch.chdir(tmp_path)
    source = tmp_path / "g.tsv"
    source.write_text(FANIN_TSV)
    argv = ["place", "--input", str(source), "--algo", "greedy-1", "--k", "1"]
    assert main(argv + ["--json", "missing/../g.tsv"]) == 1
    assert "No such file or directory" in capsys.readouterr().err
    assert source.read_text() == FANIN_TSV
    assert [p.name for p in tmp_path.iterdir()] == ["g.tsv"]


def test_no_output_may_replace_the_input_through_a_link(tmp_path, capsys):
    source = tmp_path / "g.tsv"
    source.write_text(FANIN_TSV)
    (tmp_path / "link.json").symlink_to(source)
    argv = ["place", "--input", str(source), "--algo", "greedy-1", "--k", "1"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--json", str(tmp_path / "link.json")])
    assert exc.value.code == 2
    assert "argument --json: it or its manifest is the --input file" in capsys.readouterr().err
    assert source.read_text() == FANIN_TSV


@pytest.mark.parametrize(
    "existing, link, message",
    [
        ("out.csv", "out.json", "names the same file as --csv"),
        ("out.csv.manifest.json", "out.json", "--json or --csv names the other's manifest"),
        ("out.json.manifest.json", "out.csv", "--json or --csv names the other's manifest"),
    ],
    ids=["json-is-csv", "json-is-csv-manifest", "csv-is-json-manifest"],
)
def test_fr_curve_outputs_may_not_be_one_file_through_a_hard_link(
    existing, link, message, degree_trap_path, tmp_path, capsys
):
    """A hard link resolves to a path of its own, yet names the same file."""
    (tmp_path / existing).write_text("kept\n")
    os.link(tmp_path / existing, tmp_path / link)
    argv = ["fr-curve", "--input", str(degree_trap_path), "--algos", "greedy-1", "--kmax", "1",
            "--csv", str(tmp_path / "out.csv"), "--json", str(tmp_path / "out.json")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument --json: {message}" in capsys.readouterr().err
    assert (tmp_path / existing).read_text() == (tmp_path / link).read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([degree_trap_path.name, existing, link])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def _strip_wall_ms(obj):
    if isinstance(obj, dict):
        return {k: _strip_wall_ms(v) for k, v in obj.items() if k != "wall_ms"}
    if isinstance(obj, list):
        return [_strip_wall_ms(v) for v in obj]
    return obj


def test_cli_outputs_pinned(tmp_path, capsys):
    # sha256 over the exit code and output of place (every algorithm),
    # evaluate and oracle, and over fr-curve's CSV and JSON without wall_ms,
    # on 20 seeded random DAGs (9 of them c-trees, so tree-dp runs too).
    h = hashlib.sha256()
    for seed in range(20):
        rng = random.Random(seed)
        g = random_dag(rng.randint(4, 9), rng.uniform(0.1, 0.6), 500 + seed)
        path = tmp_path / f"g{seed}.tsv"
        path.write_text(serialize_edge_list(g))
        inp = ["--input", str(path)]
        runs = [
            ["place", *inp, "--algo", algo, "--k", str(rng.randint(0, 3)),
             "--seed", str(seed)]
            for algo in ALGORITHMS
        ]
        picked = rng.sample(g.labels, rng.randint(0, 3))
        runs.append(["evaluate", *inp, "--filters", ",".join(picked)])
        runs.append(["oracle", *inp, "--k", str(rng.randint(0, 3))])
        for argv in runs:
            rc = main(argv)
            out = capsys.readouterr()
            h.update(f"{argv[0]} {rc}\n{out.out}{out.err}".encode())
        for i, algos in enumerate([[a for a in ALGORITHMS if a != "tree-dp"], ["tree-dp"]]):
            csv, js = tmp_path / f"c{seed}-{i}.csv", tmp_path / f"c{seed}-{i}.json"
            rc = main(["fr-curve", *inp, "--algos", ",".join(algos), "--kmax", "3",
                       "--runs", "3", "--seed", str(seed), "--csv", str(csv),
                       "--json", str(js)])
            err = capsys.readouterr().err
            h.update(f"fr-curve {rc}\n{err}".encode())
            if rc == 0:
                lines = [l.rsplit(",", 1)[0] for l in csv.read_text().splitlines()]
                h.update("\n".join(lines).encode())
                h.update(json.dumps(_strip_wall_ms(json.loads(js.read_text())),
                                    sort_keys=True).encode())
    assert h.hexdigest() == "dd637dc2b0d0a916ed19511959de8255d3390ccdc97c9dfb1f9a090e966b39ea"


@pytest.mark.parametrize(
    "argv, expected",
    [
        # expected: the distinct filter sets a command scores, the empty
        # set and V (every eligible node) included
        (["place", "--algo", "greedy-all", "--k", "1"], 3),
        (["evaluate", "--filters", "A,B"], 3),
        # the empty set, V and one candidate set per lane (10 eligible nodes)
        (["oracle", "--k", "1"], 1 + 1 + 10),
        (["oracle", "--k", "2"], 1 + 1 + 10 + 45),
    ],
)
def test_cli_simulates_each_filter_set_once(
    argv, expected, degree_trap_path, scoring_calls, capsys
):
    sims, passes = scoring_calls
    assert main(argv + ["--input", str(degree_trap_path)]) == 0
    # phi(empty) and F(V) are read off one no-filter prefix pass per graph:
    # V takes no lane, nor does the empty set, whose F is 0.  The placed or
    # evaluated set takes a one-lane pass (evaluate's phi is phi(empty) - F),
    # and the search scores every candidate in one pass
    assert (len(sims), passes) == (1, [expected - 2])


def test_evaluate_past_64_bits(tmp_path, capsys):
    # 70 diamonds in a row: phi(empty) > 2**71; phi is phi(empty) - F and
    # F(V) is read off the no-filter prefix, so every count must stay exact
    path = tmp_path / "diamonds.tsv"
    path.write_text(serialize_edge_list(g_diamond_chain(70)))
    assert main(["evaluate", "--input", str(path), "--filters", "j69,a5"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert (got["f"], got["phi"], got["phi_no_filters"], got["fr"]) == (
        2287396265139984400291, 2434970217729660813401, 4722366482869645213692, 0.484375)
    assert got["phi_no_filters"] == got["phi"] + got["f"]


@pytest.fixture
def per_graph_passes(monkeypatch) -> list:
    """Record each prefix and suffix pass as (pass, whether it had filters)."""
    runs = []
    for name in ("_prefix", "_suffix"):
        real = getattr(path_stats, name)

        def counting(g, members, real=real, name=name):
            runs.append((name, bool(members)))
            return real(g, members)

        monkeypatch.setattr(path_stats, name, counting)
    return runs


def test_fr_curve_runs_each_no_filter_pass_once(
    degree_trap_path, per_graph_passes, tmp_path, capsys
):
    # the three impact greedies, phi(empty) and F(V) share one no-filter
    # prefix pass and one no-filter suffix pass
    argv = ["fr-curve", "--input", str(degree_trap_path), "--algos",
            "greedy-max,greedy-l,greedy-all", "--kmax", "3", "--csv", str(tmp_path / "fr.csv")]
    assert main(argv) == 0
    no_filter = [name for name, filtered in per_graph_passes if not filtered]
    assert sorted(no_filter) == ["_prefix", "_suffix"]
    assert ("_prefix", True) in per_graph_passes  # greedy-all's and greedy-l's later rounds


@pytest.mark.parametrize("command", [["place", "--algo", "tree-dp", "--k", "2"],
                                     ["oracle", "--k", "2"], ["evaluate", "--filters", "a"]])
def test_scoring_runs_no_suffix_pass(command, per_graph_passes, tmp_path, capsys):
    # phi(empty) and F(V) need only the no-filter prefix
    path = tmp_path / "tree1.tsv"
    path.write_text(serialize_edge_list(g_tree1()))
    assert main(command + ["--input", str(path)]) == 0
    assert per_graph_passes == [("_prefix", False)]
