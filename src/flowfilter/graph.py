"""Directed communication graphs: parsing, validation and ordering.

A graph is a set of labelled nodes and directed edges (u, v), read as
"u propagates items to v".  Designated source nodes originate items; every
other node relays what it receives.  Graphs are immutable once built.
"""

import re
from itertools import chain
from operator import contains
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

    Calling the class raises TypeError: a graph comes from a loader, one
    of ``parse_edge_list``, ``build_graph``, ``synth.layered_graph``,
    ``dag_extract.extract_dag``/``best_dag`` and ``add_super_source``.
    Node labels are interned to dense indices 0..n-1 in first-seen order;
    all other modules work on the dense indices.  Edges are stored only as
    adjacency: ``out_adj[u]`` lists u's heads and ``in_adj[v]`` v's tails,
    each in the order the edges were given; ``m`` counts them.  No node,
    a self-loop or a duplicate edge raises GraphError, naming the first
    offending edge.  Sources default to the in-degree-0 nodes.  The
    topological order is computed once here; read it through
    ``topological_order`` (CycleError on a cycle) or ``single_source``.

    Every loader hands the graph one flat id list ``u0, v0, u1, v1, ...``,
    its ids in range by construction: the label loaders through
    ``_build_from_tokens``, the library's own transforms through
    ``_from_ids``.  Both share one core that makes no object per edge.
    Every graph builds its own label -> id dict from its labels.
    ``_no_filter`` starts empty and holds ``path_stats``' no-filter
    per-node lists, each filled on first use, so they live and die with
    the graph.
    """

    __slots__ = (
        "labels", "m", "out_adj", "in_adj", "sources", "_index", "_order", "_no_filter"
    )

    def __init__(self, *args, **kwargs):
        raise TypeError("a CGraph comes from a loader, such as build_graph or parse_edge_list")

    @classmethod
    def _from_ids(
        cls,
        labels: Sequence[str],
        ids: list[int],
        sources: Iterable[int] | None = None,
    ) -> "CGraph":
        """A CGraph from the flat id list ``u0, v0, u1, v1, ...``.

        For the library's transforms, whose ids and sources are in range
        by construction: nothing checks their range.
        """
        g = cls.__new__(cls)
        g.labels = tuple(labels)
        g._index = _label_index(g.labels)
        g._link(ids, sources)
        return g

    def _link(self, ids: list[int], sources: Iterable[int] | None) -> None:
        """Adjacency, sources and order from in-range flat ids and sources."""
        n = len(self.labels)
        out_lists: list[list[int]] = [[] for _ in range(n)]
        in_lists: list[list[int]] = [[] for _ in range(n)]
        it = iter(ids)
        for u, v in zip(it, it):
            out_lists[u].append(v)
            in_lists[v].append(u)
        self.m = m = len(ids) // 2
        self.out_adj: tuple[tuple[int, ...], ...] = tuple(map(tuple, out_lists))
        self.in_adj: tuple[tuple[int, ...], ...] = tuple(map(tuple, in_lists))

        # Kahn's algorithm; the order is its own FIFO queue, seeded with the
        # default sources.  It stops short of every node on or below a cycle
        order = [v for v in range(n) if not in_lists[v]]
        self.sources = frozenset(order if sources is None else sources)
        indeg = list(map(len, in_lists))
        for v in order:
            for w in out_lists[v]:
                d = indeg[w] - 1
                indeg[w] = d
                if not d:
                    order.append(w)
        # an edge repeats iff some node lists one head twice; a self-loop
        # lists a node among its own heads, which keeps it out of the order.
        # Walk the ids only to name the first bad edge
        if sum(map(len, map(set, out_lists))) != m or (
            len(order) < n and any(map(contains, out_lists, range(n)))
        ):
            _raise_first_bad_edge(self.labels, ids)
        self._order: tuple[int, ...] = tuple(order)
        self._no_filter: dict[str, list[int]] = {}

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every edge (u, v), tail by tail in index order, each tail's heads
        in ``out_adj`` order.  Rebuilt from ``out_adj`` on each read: no
        library code reads it."""
        return tuple((u, v) for u, heads in enumerate(self.out_adj) for v in heads)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise GraphError(f"unknown node label {label!r}") from None

    def sorted_labels(self, nodes: Iterable[int]) -> list[str]:
        """The labels of ``nodes``, sorted: the inverse of ``index``."""
        return sorted(self.labels[v] for v in nodes)

    def __repr__(self) -> str:
        return f"CGraph(n={self.n}, m={self.m}, sources={sorted(self.labels[s] for s in self.sources)})"


def _label_index(labels: tuple[str, ...]) -> dict[str, int]:
    """``labels``' label -> id dict, the labels being distinct (every
    loader dedups them).  GraphError if there is no label at all."""
    if not labels:
        raise GraphError("graph must have at least one node")
    return dict(zip(labels, range(len(labels))))


def _raise_first_bad_edge(labels: tuple[str, ...], ids: list[int]) -> None:
    """Raise GraphError naming the first self-loop or repeated edge of the
    flat ids, in edge order.  Called only once some edge is known to be
    bad.  The error's ``_edge`` is that edge's 0-based position, which the
    parser turns into a line number."""
    seen = set()
    it = iter(ids)
    for at, (u, v) in enumerate(zip(it, it)):
        if u == v:
            exc = GraphError(f"self-loop at node {labels[u]!r}")
        elif (u, v) in seen:
            exc = GraphError(f"duplicate edge {labels[u]!r} -> {labels[v]!r}")
        else:
            seen.add((u, v))
            continue
        exc._edge = at
        raise exc


def build_graph(
    edge_labels: Iterable[tuple[str, str]],
    nodes: Sequence[str] = (),
    sources: Sequence[str] | None = None,
) -> CGraph:
    """Build a CGraph from labelled edges.

    ``nodes`` may pre-declare labels (fixing their dense index order and
    allowing isolated nodes); labels seen only in edges are appended in
    first-seen order.  ``sources`` overrides the default in-degree-zero
    source detection.  The label pairs are flattened once; their ids go
    to the graph as one flat list.  TypeError if some edge is not a
    (u, v) pair.  Like every loader, it names the first bad edge before
    an unknown source label.
    """
    tokens: list = []
    for pair in edge_labels:
        try:
            u, v = pair
        except (TypeError, ValueError):
            raise TypeError("every edge must be a (u, v) pair") from None
        tokens += u, v
    return _build_from_tokens(tokens, nodes, sources)


def _build_from_tokens(
    tokens: list[str], nodes: Sequence[str], sources: Sequence[str] | None
) -> CGraph:
    """``build_graph`` on the flat labels ``u0, v0, u1, v1, ...``.

    The tokens become ids through the graph's own label dict, so its
    adjacency holds the dict's int objects rather than a second set.
    ``tokens`` is emptied once its labels are turned into ids, so only the
    labels' own strings outlive it.
    """
    g = CGraph.__new__(CGraph)
    g.labels = tuple(dict.fromkeys(chain(nodes, tokens)))
    g._index = index = _label_index(g.labels)
    ids = list(map(index.__getitem__, tokens))
    tokens.clear()
    # link first, so a bad edge is named before an unknown source label
    g._link(ids, None if sources is None else [index[s] for s in sources if s in index])
    for s in sources or ():
        if s not in index:
            raise GraphError(f"source label {s!r} is not a node")
    return g


# every ASCII byte that ``str.split()`` does not split on
_NON_SPACE = bytes(b for b in range(128) if not chr(b).isspace())


def _canonical_tokens(text: str) -> list[str] | None:
    """``text.split()`` if ``text`` is canonical, else None.

    Canonical text is what ``serialize_edge_list`` writes: ASCII
    ``u<TAB>v<LF>`` lines, the last one ending in LF too, and no ``#``.
    Deleting every non-space byte proves it in C: if what is left reads
    TAB LF once per token pair, the 2m tokens have just 2m gaps of one
    byte each, and as the text ends in one, none leads it.  So each line
    holds one pair, and no line is blank.
    """
    if not text.isascii() or "#" in text or not text.endswith("\n"):
        return None
    tokens = text.split()
    pairs = len(tokens) // 2
    if len(tokens) % 2 or text.encode().translate(None, _NON_SPACE) != b"\t\n" * pairs:
        return None
    return tokens


def parse_edge_list(text: str, source_hint: str | None = None) -> CGraph:
    """Parse tab-separated ``u<TAB>v`` lines into a CGraph.

    ``#`` starts a comment (whole-line or trailing); blank lines are
    skipped.  Each line declares one edge, u propagating to v.  Sources
    default to the in-degree-zero nodes unless ``source_hint`` names one
    explicitly.  One leading byte-order mark (U+FEFF) is dropped.  The
    tokens go to the graph as they were read, one flat label list, and
    become one flat id list: no object is made per edge.

    Canonical text, ASCII ``u<TAB>v<LF>`` lines with no ``#`` (what
    ``serialize_edge_list`` writes), takes its tokens from one
    ``text.split()`` once one byte check proves it canonical, and no
    list of lines is built.  Any other text is split into lines and each
    line tokenized up to its ``#``; the tokenizer notes the numbers of
    the lines that hold no edge (blank or comment-only).  Either way, a
    bad edge, which the graph names by its position, gets its line from
    that list, and each path reports the same errors.
    """
    text = text.removeprefix("\ufeff")
    no_edge: list[int] = []
    tokens = _canonical_tokens(text)
    if tokens is None:
        tokens = []
        lines = text.splitlines()
        fields = (line.split("#", 1)[0].split() for line in lines)
        for lineno, parts in enumerate(fields, start=1):
            if len(parts) == 2:
                tokens += parts
            elif not parts:
                no_edge.append(lineno)
            else:
                raise ParseError(
                    f"line {lineno}: expected 'u<TAB>v', got {lines[lineno - 1]!r}"
                )
        del lines, fields  # every line is tokenized: the split lines die here
    if not tokens:
        raise ParseError("empty graph: no edges found")
    try:
        return _build_from_tokens(
            tokens, (), [source_hint] if source_hint is not None else None
        )
    except GraphError as exc:
        if not hasattr(exc, "_edge"):
            raise ParseError(str(exc)) from None
        # the edge's line: its position, pushed down by each edgeless line
        # at or above it
        line = exc._edge + 1
        for skipped in no_edge:
            if skipped <= line:
                line += 1
        raise ParseError(f"line {line}: {exc}") from None


# a label ``parse_edge_list`` would not read back: whitespace splits it,
# ``#`` cuts it, a leading U+FEFF is dropped on the first line, and an
# empty label vanishes
_UNWRITABLE = re.compile(r"[\s#]|\A\ufeff|\A\Z")
# every character ``_UNWRITABLE`` can match
_UNWRITABLE_CHARS = re.compile(r"[\s#\ufeff]")


def serialize_edge_list(g: CGraph) -> str:
    """Render a graph in the edge-list format, edges sorted by node label.

    GraphError names the first label that would not read back as itself.
    One scan of the joined labels, and a look-up of the empty label,
    screen them all; only a hit tries them one by one.
    """
    labels = g.labels
    if "" in g._index or _UNWRITABLE_CHARS.search("".join(labels)):
        bad = next(filter(_UNWRITABLE.search, labels), None)
        if bad is not None:
            raise GraphError(f"an edge list cannot hold the label {bad!r}")
    lines = sorted(
        f"{labels[u]}\t{labels[v]}" for u, heads in enumerate(g.out_adj) for v in heads
    )
    return "\n".join(lines) + ("\n" if lines else "")


def topological_order(g: CGraph) -> tuple[int, ...]:
    """Topological order of the node indices, or CycleError.

    Deterministic: Kahn's algorithm, its FIFO queue seeded with the
    in-degree-0 nodes in index order.  It runs once when the graph is
    built, so every call returns the same tuple.
    """
    if len(g._order) < g.n:
        done = set(g._order)
        raise CycleError(_find_cycle(g, {v for v in range(g.n) if v not in done}))
    return g._order


def single_source(g: CGraph) -> int:
    """The one source of an acyclic ``g``, the precondition of every scorer.

    GraphError unless ``g`` has exactly one source, then CycleError on a cycle.
    """
    if len(g.sources) != 1:
        raise GraphError(
            f"propagation needs exactly one source, got {len(g.sources)}; "
            "apply add_super_source first"
        )
    topological_order(g)
    return next(iter(g.sources))


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
    super_idx = g.n
    ids = [x for u, heads in enumerate(g.out_adj) for v in heads for x in (u, v)]
    for s in sorted(g.sources):
        ids += (super_idx, s)
    return CGraph._from_ids(g.labels + (SUPER_SOURCE_LABEL,), ids, [super_idx])
