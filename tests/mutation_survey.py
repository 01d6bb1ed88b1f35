"""Operator mutation survey of one library module.

Flips one comparison, arithmetic or boolean operator at a time, writes the
mutated module into a scratch copy of the repository and runs the given
tests against it with ``-x``.  A mutant survives when every test passes;
each survivor is then re-run against the whole tier-1 suite.  The
repository itself is never written.

    python tests/mutation_survey.py src/flowfilter/graph.py \\
        --tests tests/test_graph.py tests/test_cli.py

pytest does not collect this file (its name does not start with
``test_``), and CI does not run it: a survey takes minutes.
"""

import argparse
import ast
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TIER1 = ["tests"]
TIMEOUT_S = 300  # per pytest run

# each operator and what it flips to
FLIPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.Mod: ast.FloorDiv, ast.LShift: ast.RShift, ast.RShift: ast.LShift,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitOr,
    ast.And: ast.Or, ast.Or: ast.And,
}


def _sites(tree: ast.AST) -> list[tuple[ast.AST, str, int]]:
    """Every flippable operator outside type annotations as (node, field,
    position in that field), in source order, so a site's number is the
    same on every parse."""
    hints = set()
    for node in ast.walk(tree):
        for hint in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if hint is not None:
                hints.update(map(id, ast.walk(hint)))
    sites = []
    for node in ast.walk(tree):
        if id(node) in hints:
            continue
        if isinstance(node, ast.Compare):
            sites += [(node, "ops", i) for i, op in enumerate(node.ops) if type(op) in FLIPS]
        elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in FLIPS:
            sites.append((node, "op", -1))
    return sorted(sites, key=lambda site: (site[0].lineno, site[0].col_offset, site[2]))


def mutants(source: str):
    """(line, "before  =>  after", mutated source) for each operator site."""
    for k in range(len(_sites(ast.parse(source)))):
        tree = ast.parse(source)
        node, field, i = _sites(tree)[k]
        before = ast.unparse(node)
        if i >= 0:
            getattr(node, field)[i] = FLIPS[type(getattr(node, field)[i])]()
        else:
            setattr(node, field, FLIPS[type(getattr(node, field))]())
        yield node.lineno, f"{before}  =>  {ast.unparse(node)}", ast.unparse(tree)


def _passes(copy: Path, tests: list[str]) -> bool:
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        run = subprocess.run(cmd, cwd=copy, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False  # a mutant that hangs is caught by any time limit
    return run.returncode == 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("module", help="module to mutate, relative to the repository root")
    ap.add_argument("--tests", nargs="+", default=TIER1, help="pytest arguments for each mutant")
    ap.add_argument("--workdir", help="scratch directory for the copy (default: a temporary one)")
    args = ap.parse_args(argv)

    work = Path(tempfile.mkdtemp(prefix="mutation-", dir=args.workdir))
    copy = work / "repo"
    target = copy / args.module
    source = (REPO / args.module).read_text()
    try:
        # the whole tree: some tests read the README or the benchmark's files
        shutil.copytree(REPO, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".*cache"))
        target.write_text(ast.unparse(ast.parse(source)))
        for tests in (args.tests, TIER1):
            if not _passes(copy, tests):
                print(f"the unmutated module fails {' '.join(tests)}", file=sys.stderr)
                return 1
        survivors = []
        total = 0
        for total, (line, desc, mutated) in enumerate(mutants(source), start=1):
            target.write_text(mutated)
            if _passes(copy, args.tests):
                survivors.append((line, desc, mutated))
                print(f"survived  line {line}: {desc}", flush=True)
        print(f"{total - len(survivors)} of {total} mutants killed by {' '.join(args.tests)}")
        for line, desc, mutated in survivors:
            target.write_text(mutated)
            verdict = "survives" if _passes(copy, TIER1) else "killed by"
            print(f"line {line}: {desc}: {verdict} tier-1", flush=True)
    finally:
        shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
