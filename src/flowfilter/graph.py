"""Directed communication graphs: parsing, validation and ordering.

A graph is a set of labelled nodes and directed edges (u, v), read as
"u propagates items to v".  Designated source nodes originate items; every
other node relays what it receives.  Graphs are immutable once built and
safe to share across threads.
"""

import heapq
from typing import Iterable, Sequence

SUPER_SOURCE_LABEL = "__super__"


class GraphError(Exception):
    """Base class for graph construction and validation failures."""


class ParseError(GraphError):
    """Malformed edge-list input."""


class NoSourceError(GraphError):
    """Raised when an operation needs a source and the graph declares none."""


class CycleError(GraphError):
    """Raised when an acyclic graph is required but a directed cycle exists.

    The offending cycle is available as ``self.cycle`` (a list of node
    labels, in traversal order, first node repeated at the end).
    """

    def __init__(self, cycle: list[str]):
        self.cycle = cycle
        super().__init__("directed cycle: " + " -> ".join(cycle))


class CGraph:
    """Immutable directed graph with designated sources.

    Node labels are interned to dense indices 0..n-1 in first-seen order;
    all other modules work on the dense indices.  Self-loops and duplicate
    edges are rejected, and the adjacency lists are recounted against the
    edge list at construction time.  The topological order is computed once
    here; read it through ``topological_order``.
    """

    __slots__ = (
        "labels", "edges", "out_adj", "in_adj", "sources", "_index", "_order"
    )

    def __init__(
        self,
        labels: Sequence[str],
        edges: Sequence[tuple[int, int]],
        sources: Iterable[int] | None = None,
    ):
        if not labels:
            raise GraphError("graph must have at least one node")
        if len(set(labels)) != len(labels):
            raise GraphError("node labels must be unique")
        self.labels: tuple[str, ...] = tuple(labels)
        self._index = {lab: i for i, lab in enumerate(self.labels)}

        n = len(self.labels)
        seen = set()
        out_lists: list[list[int]] = [[] for _ in range(n)]
        in_lists: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) references unknown node index")
            if u == v:
                raise GraphError(f"self-loop at node {self.labels[u]!r}")
            if (u, v) in seen:
                raise GraphError(
                    f"duplicate edge {self.labels[u]!r} -> {self.labels[v]!r}"
                )
            seen.add((u, v))
            out_lists[u].append(v)
            in_lists[v].append(u)
        self.edges: tuple[tuple[int, int], ...] = tuple((u, v) for u, v in edges)
        self.out_adj: tuple[tuple[int, ...], ...] = tuple(tuple(l) for l in out_lists)
        self.in_adj: tuple[tuple[int, ...], ...] = tuple(tuple(l) for l in in_lists)

        if sources is None:
            self.sources = frozenset(i for i in range(n) if not in_lists[i])
        else:
            src = frozenset(sources)
            for s in src:
                if not (0 <= s < n):
                    raise GraphError(f"source index {s} out of range")
            self.sources = src

        # recount check: adjacency must agree with the edge list
        assert sum(len(a) for a in self.out_adj) == len(self.edges)
        assert sum(len(a) for a in self.in_adj) == len(self.edges)

        # Kahn's algorithm, smallest ready index first; on a cyclic graph it
        # stops short of every node on or downstream of a cycle
        indeg = [len(l) for l in in_lists]
        ready = [v for v in range(n) if indeg[v] == 0]  # ascending: a heap
        order: list[int] = []
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for w in out_lists[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    heapq.heappush(ready, w)
        self._order: tuple[int, ...] = tuple(order)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def m(self) -> int:
        return len(self.edges)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise GraphError(f"unknown node label {label!r}") from None

    def sorted_labels(self, nodes: Iterable[int]) -> list[str]:
        """The labels of ``nodes``, sorted: the inverse of ``index``."""
        return sorted(self.labels[v] for v in nodes)

    def in_degree(self, v: int) -> int:
        return len(self.in_adj[v])

    def out_degree(self, v: int) -> int:
        return len(self.out_adj[v])

    def __repr__(self) -> str:
        return f"CGraph(n={self.n}, m={self.m}, sources={sorted(self.labels[s] for s in self.sources)})"


def build_graph(
    edge_labels: Sequence[tuple[str, str]],
    nodes: Sequence[str] = (),
    sources: Sequence[str] | None = None,
) -> CGraph:
    """Build a CGraph from labelled edges.

    ``nodes`` may pre-declare labels (fixing their dense index order and
    allowing isolated nodes); labels seen only in edges are appended in
    first-seen order.  ``sources`` overrides the default in-degree-zero
    source detection.
    """
    labels: list[str] = []
    index: dict[str, int] = {}
    for lab in nodes:
        if lab not in index:
            index[lab] = len(labels)
            labels.append(lab)
    edges: list[tuple[int, int]] = []
    for u_lab, v_lab in edge_labels:
        for lab in (u_lab, v_lab):
            if lab not in index:
                index[lab] = len(labels)
                labels.append(lab)
        edges.append((index[u_lab], index[v_lab]))
    src = None
    if sources is not None:
        missing = [s for s in sources if s not in index]
        if missing:
            raise GraphError(f"source label {missing[0]!r} is not a node")
        src = [index[s] for s in sources]
    return CGraph(labels, edges, src)


def parse_edge_list(text: str, source_hint: str | None = None) -> CGraph:
    """Parse tab-separated ``u<TAB>v`` lines into a CGraph.

    ``#`` starts a comment (whole-line or trailing); blank lines are
    skipped.  Each line declares one edge, u propagating to v.  Sources
    default to the in-degree-zero nodes unless ``source_hint`` names one
    explicitly.
    """
    edge_labels: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'u<TAB>v', got {raw!r}")
        edge_labels.append((parts[0], parts[1]))
    if not edge_labels:
        raise ParseError("empty graph: no edges found")
    try:
        return build_graph(
            edge_labels,
            sources=[source_hint] if source_hint is not None else None,
        )
    except ParseError:
        raise
    except GraphError as exc:
        raise ParseError(_first_repeat_or_loop(text) or str(exc)) from None


def _first_repeat_or_loop(text: str) -> str | None:
    """The first self-loop or repeated edge of a parsed text, with its line.

    Run only after building the graph failed, so valid input pays nothing.
    """
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        edge = tuple(raw.split("#", 1)[0].split())
        if not edge:
            continue
        u, v = edge
        if u == v:
            return f"line {lineno}: self-loop at node {u!r}"
        if edge in seen:
            return f"line {lineno}: duplicate edge {u!r} -> {v!r}"
        seen.add(edge)
    return None


def serialize_edge_list(g: CGraph) -> str:
    """Render a graph in the edge-list format, edges sorted by node label."""
    lines = sorted(f"{g.labels[u]}\t{g.labels[v]}" for u, v in g.edges)
    return "\n".join(lines) + ("\n" if lines else "")


def topological_order(g: CGraph) -> tuple[int, ...]:
    """Topological order of the node indices, or CycleError.

    Deterministic: among simultaneously-ready nodes the smallest dense
    index goes first.  The order is computed once when the graph is built,
    so every call returns the same tuple.
    """
    if len(g._order) < g.n:
        done = set(g._order)
        raise CycleError(_find_cycle(g, {v for v in range(g.n) if v not in done}))
    return g._order


def _find_cycle(g: CGraph, remaining: set[int]) -> list[str]:
    # Every node in `remaining` has an in-neighbour in `remaining`, so
    # walking backwards must revisit a node, closing a cycle.
    start = min(remaining)
    seen: dict[int, int] = {}
    walk = [start]
    v = start
    while v not in seen:
        seen[v] = len(walk) - 1
        v = min(p for p in g.in_adj[v] if p in remaining)
        walk.append(v)
    cycle = walk[seen[v] :]
    cycle.reverse()  # backwards walk -> edge direction
    return [g.labels[w] for w in cycle]


def add_super_source(g: CGraph) -> CGraph:
    """Reduce a multi-source graph to a single-source one.

    With several sources, a fresh node feeds each of them and becomes the
    only source; with exactly one source the graph is returned unchanged.
    Reachability among the original nodes is unaffected.
    """
    if len(g.sources) == 1:
        return g
    if not g.sources:
        raise NoSourceError(
            "graph has no source: every node has an incoming edge "
            "and no source hint was given"
        )
    if SUPER_SOURCE_LABEL in g.labels:
        raise GraphError(f"node label {SUPER_SOURCE_LABEL!r} is reserved")
    labels = list(g.labels) + [SUPER_SOURCE_LABEL]
    super_idx = len(g.labels)
    edges = list(g.edges) + [(super_idx, s) for s in sorted(g.sources)]
    return CGraph(labels, edges, [super_idx])
