import hashlib
import json
import random

import pytest

from flowfilter.cli import main
from flowfilter.fixtures import FANIN_TSV, DEGREE_TRAP_TSV, g_tree1
from flowfilter.graph import serialize_edge_list
from flowfilter.harness import ALGORITHMS, RANDOMIZED_ALGORITHMS
from flowfilter.synth import random_dag


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
            "--source", "s",
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
    ],
)
def test_out_of_range_arguments_exit_2(argv, degree_trap_path, tmp_path, capsys):
    if argv[0] == "generate":
        extra = ["--out", str(tmp_path / "g.tsv")]
    else:
        extra = ["--input", str(degree_trap_path)]
        if argv[0] == "fr-curve":
            extra += ["--csv", str(tmp_path / "curve.csv")]
    with pytest.raises(SystemExit) as exc:
        main(argv + extra)
    assert exc.value.code == 2
    assert f"flowfilter {argv[0]}: error: argument" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [degree_trap_path]  # nothing written


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
        (["place", "--algo", "greedy-all", "--k", "1"], 3),
        (["evaluate", "--filters", "A,B"], 3),
        # one packed lane per candidate set (10 eligible nodes), plus
        # phi(empty) in oracle and phi(empty), phi(V) for the CLI's F(V)
        (["oracle", "--k", "1"], 10 + 3),
        (["oracle", "--k", "2"], 10 + 45 + 3),
    ],
)
def test_cli_simulates_each_filter_set_once(
    argv, expected, degree_trap_path, scoring_calls, capsys
):
    sims, passes = scoring_calls
    assert main(argv + ["--input", str(degree_trap_path)]) == 0
    assert len(sims) == 3  # every filter set past these three is scored in lanes
    assert len(sims) + sum(passes) == expected
