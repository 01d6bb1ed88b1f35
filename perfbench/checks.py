"""Independent checks of flowfilter's outputs.

Nothing here imports flowfilter: graphs are re-read from the TSV files and
objectives recomputed by a propagation of our own, so a bug in the program
cannot also hide in its check.
"""

import hashlib
from collections import deque
from fractions import Fraction
from itertools import zip_longest


class Graph:
    """Labelled digraph read from an edge-list TSV, with a topological order.

    Nodes are numbered in first-seen order; ``source`` and ``order`` hold
    node numbers (``order`` is None when the graph has a cycle).
    """

    def __init__(self, text: str, source: str | None = None):
        self.edges: list[tuple[str, str]] = []
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if line:
                u, v = line.split()
                self.edges.append((u, v))
        self.nodes: list[str] = list(dict.fromkeys(x for e in self.edges for x in e))
        self.index = {lab: i for i, lab in enumerate(self.nodes)}
        self.succ: list[list[int]] = [[] for _ in self.nodes]
        self.pred: list[list[int]] = [[] for _ in self.nodes]
        for u, v in self.edges:
            self.succ[self.index[u]].append(self.index[v])
            self.pred[self.index[v]].append(self.index[u])
        roots = [v for v in range(len(self.nodes)) if not self.pred[v]]
        if source is not None:
            self.source = self.index[source]
        else:
            self.source = roots[0] if len(roots) == 1 else None
        self.order = self._kahn()

    def _kahn(self) -> list[int] | None:
        indeg = [len(p) for p in self.pred]
        ready = [v for v, d in enumerate(indeg) if d == 0]
        order = []
        while ready:
            v = ready.pop()
            order.append(v)
            for w in self.succ[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    ready.append(w)
        return order if len(order) == len(self.nodes) else None

    def reach(self, root: int) -> set[int]:
        seen, todo = {root}, deque([root])
        while todo:
            for w in self.succ[todo.popleft()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        return seen


def receipts(g: Graph, filters: set[int]) -> tuple[int, int]:
    """(total copies received by non-source nodes, largest single count).

    The source emits one copy per out-edge; every other node forwards each
    copy it receives, except that a filter forwards at most one.
    """
    fwd = [0] * len(g.nodes)
    total = peak = 0
    for v in g.order:
        if v == g.source:
            fwd[v] = 1
            continue
        r = sum([fwd[p] for p in g.pred[v]])
        total += r
        if r > peak:
            peak = r
        fwd[v] = min(r, 1) if v in filters else r
    return total, peak


class Objective:
    """F(A) = phi(empty) - phi(A) on one graph, with its F(V) for ratios."""

    def __init__(self, g: Graph):
        self.g = g
        self.phi0, self.peak = receipts(g, set())
        self.fv = self.phi0 - receipts(g, set(range(len(g.nodes))) - {g.source})[0]
        self._cache: dict[frozenset, int] = {}

    def f(self, labels) -> int:
        key = frozenset(labels)
        if key not in self._cache:
            members = {self.g.index[lab] for lab in key}
            self._cache[key] = self.phi0 - receipts(self.g, members)[0]
        return self._cache[key]

    def fr(self, labels) -> float:
        return 1.0 if self.fv == 0 else self.f(labels) / self.fv


def check_placement(obj: Objective, out: dict) -> list[str]:
    """`place` or `evaluate` JSON: f and fr agree with our propagation."""
    errs = []
    f = obj.f(out["filters"])
    if out["f"] != f:
        errs.append(f"f={out['f']} but recomputed {f}")
    if out["fr"] != round(obj.fr(out["filters"]), 6):
        errs.append(f"fr={out['fr']} but recomputed {obj.fr(out['filters'])}")
    if "phi" in out and (out["phi_no_filters"], out["phi"]) != (obj.phi0, obj.phi0 - f):
        errs.append("phi / phi_no_filters disagree with recomputed receipts")
    return errs


def decimal6(x: Fraction) -> str:
    """A non-negative ratio rounded half up to 6 decimals, as the CSV prints it."""
    q = (2 * x.numerator * 10**6 + x.denominator) // (2 * x.denominator)
    return f"{q // 10**6}.{q % 10**6:06d}"


def check_fr_curve(obj: Objective, rows: list[dict], csv: str) -> list[str]:
    """Every f and fr recomputed, per result and per row (the mean f over the
    row's runs, divided by F(V)), in the JSON and in the CSV; greedy-all's f
    never falls with k."""
    errs = []
    greedy_all = []
    want_csv = ["algorithm,k,fr,runs"]
    for row in rows:
        fs = []
        for res in row["results"]:
            f = obj.f(res["filters"])
            fs.append(f)
            if res["f"] != f or res["fr"] != obj.fr(res["filters"]):
                errs.append(f"{row['algorithm']} k={row['k']}: f={res['f']}, recomputed {f}")
        fr = Fraction(1) if obj.fv == 0 else Fraction(sum(fs), len(fs) * obj.fv)
        if row["fr"] != float(fr) or row["runs"] != len(fs):
            errs.append(f"{row['algorithm']} k={row['k']}: row fr={row['fr']} over "
                        f"{row['runs']} runs, recomputed {float(fr)} over {len(fs)}")
        want_csv.append(f"{row['algorithm']},{row['k']},{decimal6(fr)},{len(fs)}")
        if row["algorithm"] == "greedy-all":
            greedy_all.append((row["k"], row["results"][0]["f"]))
    got_csv = [line.rsplit(",", 1)[0] for line in csv.splitlines()]  # without wall_ms
    for got, want in zip_longest(got_csv, want_csv):
        if got != want:
            errs.append(f"CSV line {got!r}, recomputed {want!r}")
            break
    greedy_all.sort()
    for (k0, f0), (k1, f1) in zip(greedy_all, greedy_all[1:]):
        if f1 < f0:
            errs.append(f"greedy-all f fell from {f0} at k={k0} to {f1} at k={k1}")
    return errs


def check_validate(g: Graph, out: dict) -> list[str]:
    """`validate` JSON agrees with our own reading of the file."""
    want = (len(g.nodes), len(g.edges), g.order is not None)
    got = (out["nodes"], out["edges"], out["acyclic"])
    return [] if want == got else [f"validate reported {got}, expected {want}"]


def largest_reach(g: Graph) -> int:
    return max(len(g.reach(v)) for v in range(len(g.nodes)))


def check_dag(corpus: Graph, dag: Graph, corpus_reach: int) -> list[str]:
    """The extracted DAG is acyclic, a subgraph, rooted and maximal.

    Maximal twice over: it spans as many nodes as the largest reachable set
    of the input, and every input edge it leaves out between its nodes would
    close a cycle.
    """
    errs = []
    if dag.order is None:
        return ["extracted graph has a cycle"]
    below = [0] * len(dag.nodes)  # descendants of each node, as a bit set
    for v in reversed(dag.order):
        below[v] = 1 << v
        for w in dag.succ[v]:
            below[v] |= below[w]
    kept = set(dag.edges)
    for u, v in corpus.edges:
        if (u, v) not in kept and u in dag.index and v in dag.index:
            if not below[dag.index[v]] >> dag.index[u] & 1:
                errs.append(f"left out edge {u} -> {v}, which closes no cycle")
                break
    if not set(dag.edges) <= set(corpus.edges):
        errs.append("extracted graph has edges not in the input")
    if dag.source is None or len(dag.reach(dag.source)) != len(dag.nodes):
        errs.append("extracted graph is not reachable from a single root")
    if len(dag.nodes) != corpus_reach:
        errs.append(f"extracted {len(dag.nodes)} nodes, largest reachable set is {corpus_reach}")
    return errs


def digest(name: str, data: bytes) -> str:
    """sha256 of an output with its measured timings removed.

    The FR CSV loses its last (wall_ms) column and JSON files lose their
    ``"wall_ms"`` lines; everything else must repeat byte for byte.
    """
    if name.endswith(".csv"):
        data = b"\n".join(line.rsplit(b",", 1)[0] for line in data.split(b"\n"))
    elif name.endswith(".json") and not name.endswith(".manifest.json"):
        data = b"\n".join(
            line for line in data.split(b"\n") if not line.lstrip().startswith(b'"wall_ms"')
        )
    return hashlib.sha256(data).hexdigest()
