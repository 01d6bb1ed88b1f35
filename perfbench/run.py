#!/usr/bin/env python3
"""flowfilter benchmark: four CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py                          # every workload, seed 11
    python3 perfbench/run.py --workload ctree-dp --seed 3 --trace 1
    python3 perfbench/run.py --smoke                  # toy sizes, same code paths

One workload runs in this interpreter, single-threaded, by calling
``flowfilter.cli.main(argv)`` on files under ``.perfbench_work/``; with
``--workload all`` each workload runs in a fresh child interpreter, one
after another.  The program only sees the TSV files.  Every output is
checked (see checks.py); the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, scaled by a reference kernel that runs
in between to cancel the host's drifting speed (see refkernel.py); with
``--trace 1`` the per-layer ones from an outside-in traced run (see
tracer.py).  README.md says why each workload exists and which layer should
move which metric.
"""

import argparse
import collections
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
from refkernel import RefKernel
from tracer import Tracer, summarize, write_spans

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "digests.json"
DEFAULT_SEED = 11
WORKLOADS = ("layered-greedy", "layered-random", "cyclic-corpus", "ctree-dp")
# Setup is repeated for this share of a run's time (and at least this often);
# the passes get the rest.
SETUP_SHARE, SETUP_MIN_REPS = 0.15, 5
# At least this many timed passes per end-to-end run.
MIN_PASSES = 2
SMOKE_SECONDS = 0.2
OUTPUT_FLAGS = ("--out", "--csv", "--json")

SIZES = {
    "full": {
        "layered-greedy": {"levels": 10, "width": 60, "kmax": 3, "k": 5},
        "layered-random": {"levels": 10, "width": 100, "kmax": 10, "runs": 25},
        "cyclic-corpus": {"n": 400, "p": 0.015, "kmax": 3},
        "ctree-dp": {"deep": 500, "bushy": 5000, "trees": 10, "k_deep": 5, "k_bushy": 10},
    },
    "smoke": {
        "layered-greedy": {"levels": 4, "width": 8, "kmax": 2, "k": 3},
        "layered-random": {"levels": 4, "width": 10, "kmax": 3, "runs": 3},
        "cyclic-corpus": {"n": 40, "p": 0.08, "kmax": 2},
        "ctree-dp": {"deep": 40, "bushy": 80, "trees": 4, "k_deep": 3, "k_bushy": 4},
    },
}


def import_cli():
    """Import flowfilter.cli from this checkout's src/, or exit with an error."""
    src = ROOT / "src"
    if not (src / "flowfilter" / "cli.py").is_file():
        sys.exit(f"perfbench: {src / 'flowfilter'} not found; run from a flowfilter checkout")
    sys.path.insert(0, str(src))
    import flowfilter.cli

    if Path(flowfilter.cli.__file__).resolve().parent != src / "flowfilter":
        sys.exit(f"perfbench: imported flowfilter from {flowfilter.cli.__file__}, not {src}")
    return flowfilter.cli


class Op:
    """One CLI call and what it produced."""

    def __init__(self, label, argv, code, seconds, stdout, files):
        self.label, self.argv, self.code = label, argv, code
        self.seconds, self.stdout, self.files = seconds, stdout, files
        self.errors: list[str] = []

    def arg(self, flag):
        return self.argv[self.argv.index(flag) + 1] if flag in self.argv else None

    def json_file(self):
        return json.loads(self.files[self.arg("--json")])

    def release(self) -> None:
        """Drop the outputs once checked, so the run's memory does not grow
        with the number of passes and peak_rss_mib tracks the program."""
        self.stdout, self.files = "", {}


class Runner:
    """Runs CLI calls in process and checks every output as it arrives."""

    def __init__(self, cli, workload, workdir, seed, smoke, record):
        self.cli, self.workload, self.workdir = cli, workload, workdir
        self.ops: list[Op] = []
        self.tracer: Tracer | None = None
        self.kernel: RefKernel | None = None
        # Reference digests per op label: the committed ones for the default
        # seed at full size, otherwise the first occurrence in this run.
        pinned = {}
        if seed == DEFAULT_SEED and not smoke and not record and DIGESTS.is_file():
            pinned = json.loads(DIGESTS.read_text()).get(workload, {})
        self.reference: dict[str, dict[str, str]] = dict(pinned)
        self.verdicts: dict[tuple, list[str]] = {}
        self.graphs: dict[tuple, checks.Graph] = {}
        self.objectives: dict[int, checks.Objective] = {}  # by id of a kept Graph
        self.reach: dict[int, int] = {}

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def cli_call(self, label: str, *argv: str, tag: str | None = None) -> Op:
        argv = list(argv)
        outputs = [argv[argv.index(flag) + 1] for flag in OUTPUT_FLAGS if flag in argv]
        outputs += [p + ".manifest.json" for p in outputs]
        for name in outputs:  # so a call that writes nothing cannot pass on stale files
            Path(name).unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.tag = tag
        kernel = self.kernel
        t0 = time.perf_counter()
        k0 = kernel.seconds if kernel else 0.0
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except Exception:  # a crash is a failed operation, not a failed run
            code = -1
            err.write(traceback.format_exc())
        k1 = kernel.seconds if kernel else 0.0
        seconds = time.perf_counter() - t0 - (k1 - k0)  # without the kernel's units
        files = {}
        for name in outputs:
            with contextlib.suppress(OSError):
                files[name] = Path(name).read_bytes()
        op = Op(label, argv, code, seconds, out.getvalue(), files)
        self.ops.append(op)
        if code != 0:
            op.errors.append(f"exit code {code}: {err.getvalue().strip()}")
        else:
            self._check(op)
        return op

    def _check(self, op: Op) -> None:
        digests = {Path(name).name: checks.digest(name, data) for name, data in op.files.items()}
        digests["stdout"] = checks.digest("stdout", op.stdout.encode())
        want = self.reference.setdefault(op.label, digests)
        if want != digests:
            bad = sorted(n for n in set(want) | set(digests) if want.get(n) != digests.get(n))
            op.errors.append(f"outputs differ from the reference run: {', '.join(bad)}")
        key = (op.label, tuple(sorted(digests.items())))
        if key not in self.verdicts:
            try:
                self.verdicts[key] = self._content_errors(op)
            except (KeyError, ValueError, TypeError) as exc:
                self.verdicts[key] = [f"malformed output: {exc!r}"]
        op.errors += self.verdicts[key]

    def graph(self, path: str, source: str | None = None) -> checks.Graph:
        data = Path(path).read_bytes()
        key = (hashlib.sha256(data).digest(), source)
        if key not in self.graphs:
            self.graphs[key] = checks.Graph(data.decode(), source)
        return self.graphs[key]

    def objective(self, op: Op) -> checks.Objective:
        g = self.graph(op.arg("--input"), op.arg("--source"))
        if id(g) not in self.objectives:
            self.objectives[id(g)] = checks.Objective(g)
        return self.objectives[id(g)]

    def _content_errors(self, op: Op) -> list[str]:
        command = op.argv[0]
        if command == "generate":
            sizes = int(op.arg("--levels")) * int(op.arg("--width")) + 1
            return [] if f": {sizes} nodes," in op.stdout else [f"unexpected: {op.stdout!r}"]
        if command == "validate":
            return checks.check_validate(self.graph(op.arg("--input")), json.loads(op.stdout))
        if command == "extract-dag":
            corpus = self.graph(op.arg("--input"))
            if id(corpus) not in self.reach:
                self.reach[id(corpus)] = checks.largest_reach(corpus)
            return checks.check_dag(corpus, self.graph(op.arg("--out")), self.reach[id(corpus)])
        if command == "fr-curve":
            csv = op.files[op.arg("--csv")].decode()
            return checks.check_fr_curve(self.objective(op), op.json_file(), csv)
        if command in ("place", "evaluate"):
            return checks.check_placement(self.objective(op), op.json_file())
        return [f"no check for {command!r}"]


# --- workloads ----------------------------------------------------------------


def write_tsv(path: Path, edges) -> None:
    path.write_text("".join(f"{u}\t{v}\n" for u, v in edges))


class Workload:
    """write_inputs is the benchmark's own generator (untimed), setup is timed
    as setup_s, run_pass as pipeline_s, and after runs once at the end."""

    def __init__(self, r: Runner, seed: int, size: dict):
        self.r, self.seed, self.size = r, seed, size

    def write_inputs(self):
        pass

    def after(self):
        pass


class LayeredGreedy(Workload):
    """The paper's FR experiment for the impact-based greedies."""

    def __init__(self, r: Runner, seed: int, size: dict):
        super().__init__(r, seed, size)
        self.graph = r.path("graph.tsv")

    def setup(self):
        s = self.size
        self.r.cli_call("generate", "generate", "--levels", str(s["levels"]),
                        "--width", str(s["width"]), "--x", "1", "--y", "4",
                        "--seed", str(self.seed), "--out", self.graph)

    def run_pass(self):
        r, s = self.r, self.size
        r.cli_call("fr-curve", "fr-curve", "--input", self.graph, "--source", "s",
                   "--algos", "greedy-1,greedy-max,greedy-l,greedy-all",
                   "--kmax", str(s["kmax"]), "--csv", r.path("fr.csv"),
                   "--json", r.path("fr.json"))
        place = r.cli_call("place", "place", "--input", self.graph, "--source", "s",
                           "--algo", "greedy-all", "--k", str(s["k"]),
                           "--json", r.path("place.json"))
        picks = place.json_file()["filters"] if place.code == 0 else []
        r.cli_call("evaluate", "evaluate", "--input", self.graph, "--source", "s",
                   "--filters", ",".join(picks), "--json", r.path("evaluate.json"))


class LayeredRandom(LayeredGreedy):
    """The README's random-baseline FR curve on the desk-scale graph."""

    def run_pass(self):
        r, s = self.r, self.size
        r.cli_call("fr-curve", "fr-curve", "--input", self.graph, "--source", "s",
                   "--algos", "rand-k,rand-i,rand-w", "--kmax", str(s["kmax"]),
                   "--runs", str(s["runs"]), "--seed", str(self.seed),
                   "--csv", r.path("fr.csv"), "--json", r.path("fr.json"))


class CyclicCorpus(Workload):
    """The bring-your-own-corpus flow on a seeded cyclic random digraph."""

    def __init__(self, r: Runner, seed: int, size: dict):
        super().__init__(r, seed, size)
        self.corpus = r.path("corpus.tsv")

    def write_inputs(self):
        n, p = self.size["n"], self.size["p"]
        rng = random.Random(f"cyclic-corpus:{self.seed}")
        edges = [(f"c{u}", f"c{v}") for u in range(n) for v in range(n)
                 if u != v and rng.random() < p]
        write_tsv(Path(self.corpus), edges)

    def setup(self):
        self.r.cli_call("validate-corpus", "validate", "--input", self.corpus)

    def run_pass(self):
        r = self.r
        dag = r.path("dag.tsv")
        r.cli_call("validate-corpus", "validate", "--input", self.corpus)
        r.cli_call("extract-dag", "extract-dag", "--input", self.corpus,
                   "--best-root", "--out", dag)
        shape = r.cli_call("validate-dag", "validate", "--input", dag)
        root = json.loads(shape.stdout)["sources"][0] if shape.code == 0 else "?"
        r.cli_call("fr-curve", "fr-curve", "--input", dag, "--source", root,
                   "--algos", "greedy-1,greedy-l,greedy-all",
                   "--kmax", str(self.size["kmax"]), "--csv", r.path("fr.csv"),
                   "--json", r.path("fr.json"))


class CTreeDP(Workload):
    """Exact tree DP on a deep chain c-tree and on a bushy random forest."""

    def __init__(self, r: Runner, seed: int, size: dict):
        super().__init__(r, seed, size)
        self.inputs = {"deep": r.path("deep.tsv"), "bushy": r.path("bushy.tsv")}
        self.dp_results: list[tuple[str, Op, int]] = []  # (shape, op, f)

    def write_inputs(self):
        # Exactly 3 of every 10 consecutive nodes get a direct source edge
        # (each node's chance is 0.3), and the bushy input is a forest of
        # equal random recursive trees.  With independent coin flips and a
        # single tree, the DP's cost swings by about 17% with the seed,
        # because a few top nodes own most of the tree.
        trees = {"deep": 1, "bushy": self.size["trees"]}
        for shape, path in self.inputs.items():
            rng = random.Random(f"ctree-dp:{shape}:{self.seed}")
            n = self.size[shape]
            size = n // trees[shape]
            edges = []
            for i in range(n):
                base = i - i % size
                if i == base:
                    edges.append(("s", f"t{i}"))
                else:
                    parent = i - 1 if shape == "deep" else base + rng.randrange(i - base)
                    edges.append((f"t{parent}", f"t{i}"))
            fed = {b + j for b in range(0, n, 10) for j in rng.sample(range(10), 3)}
            edges += [("s", f"t{i}") for i in sorted(fed) if i % size]
            write_tsv(Path(path), edges)

    def setup(self):
        for shape, path in self.inputs.items():
            self.r.cli_call(f"validate-{shape}", "validate", "--input", path)

    def _place(self, shape: str, algo: str) -> Op:
        return self.r.cli_call(
            f"{algo}-{shape}", "place", "--input", self.inputs[shape], "--source", "s",
            "--algo", algo, "--k", str(self.size[f"k_{shape}"]),
            "--json", self.r.path(f"{algo}-{shape}.json"), tag=shape)

    def run_pass(self):
        for shape in self.inputs:
            op = self._place(shape, "tree-dp")
            if not op.errors:
                self.dp_results.append((shape, op, op.json_file()["f"]))

    def after(self):
        # tree-dp is exact, so it must match or beat greedy-all at equal k.
        for shape in self.inputs:
            greedy = self._place(shape, "greedy-all")
            if greedy.errors:
                continue
            bound = greedy.json_file()["f"]
            for dp_shape, op, f in self.dp_results:
                if dp_shape == shape and f < bound:
                    op.errors.append(f"tree-dp f={f} < greedy-all f={bound}")


WORKLOAD_CLASSES = {
    "layered-greedy": LayeredGreedy,
    "layered-random": LayeredRandom,
    "cyclic-corpus": CyclicCorpus,
    "ctree-dp": CTreeDP,
}


# --- measurement --------------------------------------------------------------


def timed(runner: Runner, step) -> float:
    """Run one setup or pass; its time is the sum of its CLI calls."""
    first = len(runner.ops)
    step()
    for op in runner.ops[first:]:
        op.release()
    return sum(op.seconds for op in runner.ops[first:])


def run_passes(runner: Runner, step, seconds: float, min_passes: int):
    """Passes until another would overrun ``seconds`` (at least ``min_passes``).

    Returns each pass's time and the reference kernel's scale over it (None
    when no kernel runs).
    """
    passes: list[tuple[float, float | None]] = []
    walls: list[float] = []  # with the kernel's units, for the overrun test
    start = time.perf_counter()
    while len(passes) < min_passes or (
        time.perf_counter() - start + statistics.median(walls) <= seconds
    ):
        t0 = time.perf_counter()
        mark = runner.kernel.mark() if runner.kernel else None
        t = timed(runner, step)
        passes.append((t, runner.kernel.scale_since(mark) if mark else None))
        walls.append(time.perf_counter() - t0)
    return passes


def measure_setup(runner: Runner, wl, seconds: float) -> list[float]:
    times: list[float] = []
    start = time.perf_counter()
    while len(times) < SETUP_MIN_REPS or time.perf_counter() - start < seconds:
        times.append(timed(runner, wl.setup))
    return times


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    with contextlib.suppress(OSError):
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "flowfilter").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(runner: Runner, wl, seconds: float):
    """Setup reps for SETUP_SHARE of ``seconds``, then passes; every time is
    scaled by the reference kernel run in between (see refkernel.py)."""
    kernel = RefKernel()
    start = time.perf_counter()
    with kernel:
        runner.kernel = kernel
        mark = kernel.mark()
        setup_times = measure_setup(runner, wl, seconds * SETUP_SHARE)
        setup_scale = kernel.scale_since(mark)
        passes = run_passes(runner, wl.run_pass, seconds - (time.perf_counter() - start),
                            min_passes=MIN_PASSES)
        runner.kernel = None
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    pass_times = [t for t, _ in passes]
    metrics = {
        "pipeline_s": metric(statistics.median(t * scale for t, scale in passes), "s"),
        "setup_s": metric(statistics.median(setup_times) * setup_scale, "s"),
        "peak_rss_mib": metric(rss_mib, "MiB"),
    }
    samples = {"pipeline_s": len(passes), "setup_s": len(setup_times), "peak_rss_mib": 1}
    wall = {"pipeline_wall_s": statistics.median(pass_times),
            "setup_wall_s": statistics.median(setup_times),
            "pass_scales": [round(scale, 4) for _, scale in passes],
            "setup_scale": round(setup_scale, 4)}
    return metrics, samples, pass_times, wall


def per_layer(runner: Runner, wl, seconds: float, spans_path: Path):
    """Half the time untraced passes, half traced iterations (setup + pass)."""
    plain = [t for t, _ in run_passes(runner, wl.run_pass, seconds / 2, min_passes=1)]
    traced_times, rows, iterations = [], [], []
    start = time.perf_counter()
    with Tracer() as tracer:
        runner.tracer = tracer
        while not traced_times or (
            time.perf_counter() - start + statistics.median(traced_times) <= seconds / 2
        ):
            tracer.reset()
            first_op = len(runner.ops)
            timed(runner, wl.setup)
            pass_start = len(tracer.spans)
            t = timed(runner, wl.run_pass)
            traced_times.append(t)
            row = summarize(tracer.spans, pass_start)
            # Share of the pass spent below the CLI layer: time that no
            # listed function below cli.main accounts for lowers it.
            row["trace.coverage"] = (t - row.pop("cli_self_s")) / t
            row["cli.main.failed"] = sum(1 for op in runner.ops[first_op:] if op.code != 0)
            rows.append(row)
            iterations.append(list(tracer.spans))
        runner.tracer = None
    write_spans(spans_path, iterations)

    metrics = {}
    for key in rows[0]:
        unit = ("count" if key.endswith((".calls", ".rounds", ".failed"))
                else "ratio" if key.endswith(("_ratio", ".coverage")) else "s")
        median = statistics.median_low if unit == "count" else statistics.median
        metrics[key] = metric(median(row[key] for row in rows), unit)
    metrics["trace.overhead_s"] = metric(
        statistics.median(traced_times) - statistics.median(plain), "s")
    # Input descriptors: the largest DAG a placement command read.
    inputs = sorted(runner.objectives.values(), key=lambda o: len(o.g.edges))
    metrics["graph.nodes"] = metric(len(inputs[-1].g.nodes) if inputs else 0, "count")
    metrics["graph.edges"] = metric(len(inputs[-1].g.edges) if inputs else 0, "count")
    metrics["graph.max_prefix_bits"] = metric(
        max((o.peak.bit_length() for o in inputs), default=0), "bits")
    samples = {"traced passes": len(traced_times), "untraced passes": len(plain)}
    return metrics, samples, plain, {}


def run_workload(args) -> int:
    cli = import_cli()
    os.chdir(ROOT)
    mode = "smoke" if args.smoke else "full"
    workdir = Path(".perfbench_work") / mode / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(cli, args.workload, workdir, args.seed, args.smoke, args.record)
    wl = WORKLOAD_CLASSES[args.workload](runner, args.seed, SIZES[mode][args.workload])
    wl.write_inputs()

    if args.trace:  # traced iterations repeat the setup themselves
        start = time.perf_counter()
        timed(runner, wl.setup)
        rest = args.seconds - (time.perf_counter() - start)
        metrics, samples, pass_times, wall = per_layer(
            runner, wl, rest, workdir / "trace.jsonl")
    else:
        metrics, samples, pass_times, wall = end_to_end(runner, wl, args.seconds)
    wl.after()
    attempted = len(runner.ops)
    failed = sum(1 for op in runner.ops if op.errors)
    problems = collections.Counter(
        f"{op.label} ({' '.join(op.argv)}): {e}" for op in runner.ops for e in op.errors)
    for problem, n in problems.items():
        print(f"perfbench: FAILED {n}x {problem}", file=sys.stderr)

    if args.record:
        if failed:
            sys.exit("perfbench: not recording digests of a run with failures")
        pinned = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        pinned[args.workload] = runner.reference
        DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")

    for name, m in metrics.items():
        n = samples.get(name)
        note = f"  (median of {n})" if n else ""
        print(f"{args.workload}  {name} = {m['value']:.6g} {m['unit']}{note}")
    print(f"{args.workload}  error_rate = {failed / attempted:.6g} "
          f"({failed} failed / {attempted} attempted)")
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "samples": samples,
        "untraced_pass_s": [round(t, 4) for t in pass_times], **wall,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": git_commit(), "src_sha256": src_digest(),
    }
    print(json.dumps({"context": context}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh interpreter, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--trace", str(args.trace)]
        argv += ["--smoke"] if args.smoke else ["--seconds", str(args.seconds)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = m
        total["metrics"][f"{name}.error_rate"] = metric(
            result["failed"] / result["attempted"], "ratio")
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float,
                   help="measuring time per workload (default: run_seconds "
                        "in BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="toy sizes, same code paths")
    p.add_argument("--record", action="store_true",
                   help="pin this run's output digests in digests.json")
    args = p.parse_args(argv)
    if args.record and (args.seed != DEFAULT_SEED or args.smoke or args.workload == "all"):
        p.error("--record needs one workload, the default seed and full sizes")
    if args.smoke and args.seconds is not None:
        p.error("--smoke runs for a fixed short time; drop --seconds")
    if args.smoke:
        args.seconds = SMOKE_SECONDS
    elif args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
