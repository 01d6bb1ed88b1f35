import gc
import hashlib
import random
import sys
import tracemalloc
from itertools import permutations

import pytest

from _oracles import (
    CGraphReference,
    build_graph_reference,
    indexed_graph,
    parse_edge_list_reference,
    random_dag,
    random_digraph,
    reachable_from,
)

from fixtures import FANIN_TSV, DEGREE_TRAP_TSV, g_fanin, g_degree_trap
from flowfilter.dag_extract import extract_dag
from flowfilter.graph import (
    CGraph,
    CycleError,
    GraphError,
    NoSourceError,
    ParseError,
    _build_from_tokens,
    _canonical_tokens,
    add_super_source,
    build_graph,
    parse_edge_list,
    serialize_edge_list,
    topological_order,
)
from flowfilter.synth import LayeredConfig, layered_graph


def test_parse_fan_out_with_hint():
    g = parse_edge_list("s\tx\ns\ty", source_hint="s")
    assert g.n == 3
    assert g.m == 2
    assert g.sources == {g.index("s")}


def test_parse_fanin_text():
    g = parse_edge_list(FANIN_TSV, source_hint="s")
    assert g.n == 7
    assert g.m == 9


def test_parse_detects_sources_without_hint():
    g = parse_edge_list("a\tc\nb\tc")
    assert {g.labels[s] for s in g.sources} == {"a", "b"}


def test_parse_skips_comments_and_blanks():
    g = parse_edge_list("# header\n\na\tb  # trailing\n")
    assert g.m == 1


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("a\ta", "self-loop"),
        ("a\tb\na\tb", "duplicate"),
        ("# nothing\n", "empty"),
        ("a b c", "expected"),
        ("s\ta\nb\tc\ns\ta\n", "^line 3: duplicate edge 's' -> 'a'$"),
        ("# head\ns\ta\n\na\ta  # loop\n", "^line 4: self-loop at node 'a'$"),
        ("a\tb # x\n# c\nb\tc\na\tb\nc\tc\n", "^line 4: duplicate"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_edge_list(text)


def test_parse_drops_one_leading_bom():
    text = "s\ta\ns\tb\na\tc\nb\tc\nc\td\n"
    for parse in (parse_edge_list, parse_edge_list_reference):
        assert _loaded(parse, "\ufeff" + text) == _loaded(parse, text)
        # only the first is a byte-order mark; a second one is part of the label
        assert parse("\ufeff\ufeff" + text).labels[0] == "\ufeffs"


def test_parse_unknown_source_hint():
    with pytest.raises(ParseError, match="not a node"):
        parse_edge_list("a\tb", source_hint="zzz")
    # a repeated edge is reported before the unknown hint
    with pytest.raises(ParseError) as exc:
        parse_edge_list("a\tb\na\tb\n", source_hint="zzz")
    assert str(exc.value) == "line 2: duplicate edge 'a' -> 'b'"


def test_build_graph_names_a_bad_edge_before_an_unknown_source():
    """Every loader has one precedence: the first bad edge, then sources."""
    with pytest.raises(GraphError) as exc:
        build_graph([("a", "b"), ("a", "b")], sources=["zz"])
    assert str(exc.value) == "duplicate edge 'a' -> 'b'"


def test_dense_indices_follow_first_seen_order():
    g = g_fanin()
    assert g.labels == ("s", "x", "y", "z1", "z2", "z3", "w")
    assert g.index("z2") == 4


@pytest.mark.parametrize(
    "edges, message",
    [
        # the first bad edge wins, though a repeat of a -> b follows
        ([("a", "b"), ("c", "c"), ("a", "b")], "self-loop at node 'c'"),
        ([("a", "b"), ("a", "b")], "duplicate edge 'a' -> 'b'"),
        ([], "graph must have at least one node"),
    ],
)
def test_cgraph_error_messages_pinned(edges, message):
    with pytest.raises(GraphError) as exc:
        build_graph(edges)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "edges",
    [
        [(0, 1, 2)],
        [(0,)],
        [(0, 1), (2,)],
        # flattened, these two would read as the edges (0, 1) and (2, 0)
        [(0, 1, 2), (0,)],
        [(0, 1), 2],
    ],
)
def test_an_edge_that_is_not_a_pair_is_refused(edges):
    with pytest.raises(TypeError):
        build_graph(edges)  # the ids serve as labels


def test_an_edge_given_as_an_iterator_is_read_once():
    g = build_graph([("a", "b"), iter(("b", "c")), ("c", "d")])
    assert (g.m, g.sorted_labels(g.sources)) == (3, ["a"])


def test_parse_splits_at_every_line_boundary():
    g = parse_edge_list("a\tb\u2028b\tc\x1cc\td\n")
    assert (g.n, g.m) == (4, 3)


def test_topological_order_chain():
    g = build_graph([("s", "a"), ("a", "b"), ("b", "c")])
    assert [g.labels[v] for v in topological_order(g)] == ["s", "a", "b", "c"]


def test_topological_order_fanin_positions():
    g = g_fanin()
    order = topological_order(g)
    pos = {v: i for i, v in enumerate(order)}
    assert order[0] == g.index("s")
    assert order[-1] == g.index("w")
    for u, v in g.edges:  # every edge respected, by exhaustive scan
        assert pos[u] < pos[v]


def test_topological_order_deterministic_tie_break():
    g = build_graph([("s", "a"), ("a", "b"), ("s", "c")])
    # FIFO: a and c become ready together, in s's out-edge order, and b only
    # after a, so c leaves before b; smallest-ready-first would take b (index 2)
    # before c (index 3)
    assert [g.labels[v] for v in topological_order(g)] == ["s", "a", "c", "b"]


def test_cycle_detected_with_cycle_report():
    g = build_graph([("a", "b"), ("b", "c"), ("c", "a")])
    with pytest.raises(CycleError) as exc:
        topological_order(g)
    cycle = exc.value.cycle
    assert cycle[0] == cycle[-1]
    assert set(cycle) == {"a", "b", "c"}
    # consecutive entries really are edges
    for u, v in zip(cycle, cycle[1:]):
        assert (g.index(u), g.index(v)) in set(g.edges)


def test_topological_order_is_stored_on_the_graph():
    g = g_fanin()
    order = topological_order(g)
    assert isinstance(order, tuple)
    assert topological_order(g) is order


def test_cycle_reports_pinned():
    # validate prints CycleError.cycle, so which cycle is reported is pinned
    h = hashlib.sha256()
    for seed in range(30):
        rng = random.Random(seed)
        g = random_digraph(rng.randint(2, 30), rng.uniform(0.02, 0.3), seed + 7000)
        try:
            topological_order(g)
            line = "acyclic"
        except CycleError as exc:
            line = " ".join(exc.cycle)
        h.update(line.encode() + b"\n")
    assert h.hexdigest() == (
        "7b09a90f71117cecce7ff88186f2dfb48aa56e04520d2afa799ccf8646e7793b"
    )


def test_add_super_source_two_roots():
    g = build_graph([("r1", "x"), ("r2", "x")])
    g2 = add_super_source(g)
    assert g2.n == g.n + 1
    assert {g2.labels[s] for s in g2.sources} == {"__super__"}
    sup = g2.index("__super__")
    assert {g2.labels[v] for v in g2.out_adj[sup]} == {"r1", "r2"}


def test_add_super_source_idempotent_on_single_source():
    g = g_fanin()
    assert add_super_source(g) is g


def test_add_super_source_no_source():
    g = build_graph([("a", "b"), ("b", "a")])
    with pytest.raises(NoSourceError):
        add_super_source(g)


def test_add_super_source_rejects_the_reserved_label():
    # three sources, one of them already named like the node it would add
    g = build_graph([("a", "c"), ("b", "c"), ("__super__", "d")])
    with pytest.raises(GraphError) as exc:
        add_super_source(g)
    assert str(exc.value) == "node label '__super__' is reserved"


@pytest.mark.parametrize("seed", range(10))
def test_add_super_source_preserves_reachability(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 10)
    names = [f"v{i}" for i in range(n)]
    edges = [
        (names[u], names[v])
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < 0.3
    ]
    if not edges:
        edges = [(names[0], names[1])]
    g = build_graph(edges, nodes=names)
    g2 = add_super_source(g)
    for v in range(g.n):
        before = {g.labels[w] for w in reachable_from(g, v)}
        after = {g2.labels[w] for w in reachable_from(g2, g2.index(g.labels[v]))}
        assert before == after


def test_reachable_from_fanin():
    g = g_fanin()
    assert reachable_from(g, g.index("s")) == set(range(7))
    assert reachable_from(g, g.index("w")) == {g.index("w")}


def test_reachable_from_chain_middle():
    g = build_graph([("s", "a"), ("a", "b"), ("b", "c")])
    got = {g.labels[v] for v in reachable_from(g, g.index("b"))}
    assert got == {"b", "c"}


def _labelled_edges(g):
    return {(g.labels[u], g.labels[v]) for u, v in g.edges}


@pytest.mark.parametrize("text", [FANIN_TSV, DEGREE_TRAP_TSV])
def test_round_trip_fixture_texts(text):
    g = parse_edge_list(text)
    assert _labelled_edges(parse_edge_list(serialize_edge_list(g))) == _labelled_edges(g)


@pytest.mark.parametrize("seed", range(8))
def test_round_trip_random_graphs(seed):
    g = random_dag(8, 0.4, seed)
    assert _labelled_edges(parse_edge_list(serialize_edge_list(g))) == _labelled_edges(g)


# what labels are drawn from: two letters, then what the parser splits,
# cuts or drops
_LABEL_PIECES = ("a", "b", "#", "\t", " ", "\x1c", "\u2028", "\ufeff", "")


def test_serialized_labels_read_back_or_are_refused():
    """``serialize_edge_list`` writes text that parses to the same labelled
    edges, or refuses the graph, naming a label that cannot read back as
    the first label of a text.  Once ``s<TAB>x#y`` was written, and the
    ``#`` cut a label."""
    outcomes = {"written": 0, "refused": 0, "inner BOM written": 0}
    for seed in range(600):
        rng = random.Random(seed)
        pool = sorted({
            "".join(rng.choices(_LABEL_PIECES, [12, 12, 1, 1, 1, 1, 1, 4, 1], k=rng.randint(1, 3)))
            for _ in range(rng.randint(2, 5))
        })
        if len(pool) < 2:
            continue
        g = build_graph(dict.fromkeys(tuple(rng.sample(pool, 2)) for _ in range(rng.randint(1, 6))))
        try:
            text = serialize_edge_list(g)
        except GraphError as exc:
            message = "an edge list cannot hold the label {!r}"
            bad = next(label for label in g.labels if str(exc) == message.format(label))
            try:
                read_back = parse_edge_list(f"{bad}\tz\n").labels
            except ParseError:
                read_back = None
            assert read_back != (bad, "z"), bad
            outcomes["refused"] += 1
            continue
        assert _labelled_edges(parse_edge_list(text)) == _labelled_edges(g), text
        outcomes["written"] += 1
        outcomes["inner BOM written"] += "\ufeff" in text
    assert min(outcomes.values()) >= 30, outcomes


_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x1c", "\x85", "\u2028")
_GAPS = ("\t", " ", "\t\t", " \t ")


def _random_edge_text(rng: random.Random) -> str:
    """An edge list mixing blank lines, every line break and gap, comments
    in about half of the texts, and bad lines, self-loops and repeats in
    about a third."""
    pool = [f"v{i}" for i in range(rng.randint(2, 9))]
    rank = {lab: i for i, lab in enumerate(rng.sample(pool, len(pool)))}
    acyclic, faulty, comments = (rng.random() < p for p in (0.6, 0.3, 0.5))
    used, lines = set(), []
    for _ in range(rng.randint(0, 16)):
        r = rng.random()
        if r < 0.1 and comments:
            lines.append("# " + rng.choice(pool))
            continue
        if r < 0.2:
            lines.append(rng.choice(["", " ", "\t", " \t "]))
            continue
        u, v = rng.sample(pool, 2)
        if acyclic and rank[u] > rank[v]:
            u, v = v, u
        fields = [u, v]
        if faulty and rng.random() < 0.15:
            repeat = list(rng.choice(sorted(used))) if used else [u, v]
            fields = rng.choice([[u], [u, v, v], [u, u], repeat])
        elif (u, v) in used and not faulty:
            continue
        used.add((u, v))
        gap = rng.choice(_GAPS)
        lead = rng.choice(["", " ", "\t"])
        tail = rng.choice(["", " ", "  # c", "\t#", "#x"] if comments else ["", " "])
        lines.append(lead + gap.join(fields) + tail)
    text = "".join(line + rng.choice(_BREAKS) for line in lines)
    return text[:-1] if text and rng.random() < 0.3 else text


def _loaded(build, *args):
    """Everything a graph exposes, or the type and message of what was raised."""
    try:
        g = build(*args)
    except GraphError as exc:
        return type(exc), str(exc)
    try:
        order = topological_order(g)
    except CycleError as exc:
        order = exc.cycle
    # sorted: a CGraph keeps only each node's edge order, not one across tails
    return g.labels, sorted(g.edges), g.out_adj, g.in_adj, g.sources, order


def test_parse_edge_list_matches_reference():
    outcomes = {"acyclic": 0, "cyclic": 0, "error": 0}
    for seed in range(500):
        rng = random.Random(seed)
        text = _random_edge_text(rng)
        hint = rng.choice([None, None, None, "v0", "v1", "zzz"])
        got = _loaded(parse_edge_list, text, hint)
        assert got == _loaded(parse_edge_list_reference, text, hint), (seed, text)
        if len(got) == 2:
            outcomes["error"] += 1
        else:
            outcomes["acyclic" if len(got[5]) == len(got[0]) else "cyclic"] += 1
    assert min(outcomes.values()) >= 50, outcomes


def _random_canonical_text(rng: random.Random) -> str:
    """``u<TAB>v<LF>`` lines over a few labels; about a third of the texts
    may repeat an edge or hold a self-loop."""
    pool = [f"v{i}" for i in range(rng.randint(2, 5))]
    faulty = rng.random() < 0.3
    pairs = [
        tuple(rng.choices(pool, k=2)) if faulty else tuple(rng.sample(pool, 2))
        for _ in range(rng.randint(1, 5))
    ]
    if not faulty:
        pairs = list(dict.fromkeys(pairs))
    return "".join(f"{u}\t{v}\n" for u, v in pairs)


_EDIT_CHARS = ("\t", "\n", " ", "\r", "#", "\x1c", "\xa0", "x")


def _one_byte_edits(text: str):
    """Every text one insert, delete or replace away from ``text``, the
    inserted or replacing character one of ``_EDIT_CHARS``."""
    for at in range(len(text) + 1):
        yield text[:at] + text[at + 1:]
        for c in _EDIT_CHARS:
            yield text[:at] + c + text[at:]
            yield text[:at] + c + text[at + 1:]


def test_both_tokenizer_paths_match_reference():
    """Canonical text and every one-byte edit of it, most of which leave it
    not canonical, parse to what the line-by-line reference reads: the
    same graph or the same error."""
    paths = {"canonical": 0, "general": 0}
    for seed in range(40):
        rng = random.Random(seed)
        text = _random_canonical_text(rng)
        for edited in {text, *_one_byte_edits(text)}:
            hint = rng.choice([None, None, "v0"])
            got = _loaded(parse_edge_list, edited, hint)
            assert got == _loaded(parse_edge_list_reference, edited, hint), (seed, edited)
            paths["general" if _canonical_tokens(edited) is None else "canonical"] += 1
    assert min(paths.values()) >= 500, paths


def test_the_canonical_check_accepts_what_the_cli_writes():
    graphs = [layered_graph(_LAYERED_10X60), g_fanin(), g_degree_trap()]
    graphs += [random_dag(n, 0.4, n) for n in range(2, 12)]
    for g in graphs:
        text = serialize_edge_list(g)
        assert _canonical_tokens(text) == text.split()


@pytest.mark.parametrize(
    "text",
    [
        "a\tb\tc\nd\n",  # an even token count, not two per line
        "a\tb\n\nc\td\n",  # a blank line
        "a b\n",
        "a\t\tb\n",
        "\ta\tb\n",
        "a\tb\r\n",
        "a\tb\x1cc\td\n",  # a line break that is not LF
        "a\tb#\n",
        "a\tb",  # no final LF
        "a\t\nb",  # its gaps read TAB LF, but it does not end in LF
    ],
)
def test_the_canonical_check_refuses_other_text(text):
    assert _canonical_tokens(text) is None
    assert _loaded(parse_edge_list, text) == _loaded(parse_edge_list_reference, text)


def test_build_graph_matches_reference():
    for seed in range(300):
        rng = random.Random(seed)
        pool = [f"v{i}" for i in range(rng.randint(1, 8))] + ["iso"]
        pairs = [tuple(rng.choices(pool, k=2)) for _ in range(rng.randint(0, 12))]
        nodes = rng.choices(pool, k=rng.randint(0, 5))
        sources = rng.choice([None, rng.choices(pool + ["zzz"], k=rng.randint(0, 2))])
        got = _loaded(build_graph, pairs, nodes, sources)
        assert got == _loaded(build_graph_reference, pairs, nodes, sources), seed


def _random_in_range_edges(rng: random.Random) -> tuple[list[str], list[tuple[int, int]]]:
    """Labels and in-range index edges; in about half of the graphs each
    edge is, with odds 1 in 4, a self-loop or a repeat of an earlier edge,
    so the two faults come in every order, on cyclic graphs and acyclic."""
    n = rng.randint(1, 6)
    faulty = rng.random() < 0.5
    edges: list[tuple[int, int]] = []
    for _ in range(rng.randint(0, 12)):
        u, v = rng.randrange(n), rng.randrange(n)
        if faulty and rng.random() < 0.25:
            if edges and rng.random() < 0.5:
                u, v = rng.choice(edges)
            else:
                v = u
        elif u == v or (u, v) in edges:
            continue
        edges.append((u, v))
    return [f"v{i}" for i in range(n)], edges


def _matches_reference_on_index_edges(load):
    """``load(labels, edges, sources)`` must name the same first bad edge,
    and build the same graph, as the edge-by-edge check, on 600 seeded
    graphs and on a self-loop on a node below a source, a repeat and a
    self-loop on a source, in all six orders, after an acyclic and a
    cyclic prefix.  Each outcome must come up at least 30 times."""
    outcomes = dict.fromkeys(["self-loop", "duplicate edge", "built"], 0)
    cases = []
    for seed in range(600):
        rng = random.Random(seed)
        labels, edges = _random_in_range_edges(rng)
        n = len(labels)
        sources = rng.choice([None, [rng.randrange(n) for _ in range(rng.randint(0, 2))]])
        cases.append((labels, edges, sources))
    for prefix in ([(0, 1), (1, 2)], [(0, 1), (1, 2), (2, 1)]):
        for order in permutations([(2, 2), (0, 1), (0, 0)]):
            for sources in (None, [0], [2]):
                cases.append((["a", "b", "c"], [*prefix, *order], sources))
    for labels, edges, sources in cases:
        got = _loaded(load, labels, edges, sources)
        assert got == _loaded(CGraphReference, labels, edges, sources), (labels, edges, sources)
        kind = next((k for k in outcomes if len(got) == 2 and k in got[1]), "built")
        outcomes[kind] += 1
    assert min(outcomes.values()) >= 30, outcomes


def test_cgraph_matches_reference_on_raw_edges():
    """The index edges and sources, as labels, through ``build_graph``."""
    _matches_reference_on_index_edges(indexed_graph)


def test_trusted_constructor_matches_reference():
    """``_from_ids`` finds self-loops and repeats from the adjacency lists
    (a self-loop only once the order stops short)."""
    _matches_reference_on_index_edges(
        lambda labels, edges, sources: CGraph._from_ids(
            labels, [x for e in edges for x in e], sources
        )
    )


def test_every_builder_keeps_its_graphs_own_index():
    """Every graph builds its label dict from its own labels, whichever
    builder made it; it must map each label to its own index."""
    g = parse_edge_list("b\ta\nc\ta\na\td\nd\tb2\n")
    graphs = [
        g,
        build_graph([("x", "y")], nodes=["z", "y"]),
        add_super_source(g),
        extract_dag(parse_edge_list("a\tb\nb\tc\nc\ta\nc\td\n"), 1),
        layered_graph(LayeredConfig(3, 4, 1, 4, seed=2)),
    ]
    for h in graphs:
        assert [h.index(label) for label in h.labels] == list(range(h.n)), h.labels
        assert len(h._index) == h.n, h.labels


def test_a_loaded_graph_keeps_one_int_per_node_id():
    """The parser and ``build_graph`` map tokens through the graph's own
    label dict, so its adjacency holds the dict's id ints: a second set
    would cost 32 B per label past 256."""
    pairs = [(f"v{i}", f"v{i + 1}") for i in range(600)]
    text = "".join(f"{u}\t{v}\n" for u, v in pairs)
    for g in (parse_edge_list(text), build_graph(pairs)):
        ids = list(g._index.values())
        for adj in (g.out_adj, g.in_adj):
            assert all(w is ids[w] for heads in adj for w in heads)


def _traced(fn):
    """What ``fn()`` returns, the bytes still allocated after it, and the peak.

    A full collection empties the interpreter's free lists before the kept
    bytes are read: the blocks they hold (up to 2000 freed 2-tuples, say)
    belong to no live object, and how many of them were taken while tracing
    depends on what ran before.
    """
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return out, kept, peak


_LAYERED_10X60 = LayeredConfig(10, 60, 1, 4, seed=11)


def test_parse_peak_memory_is_that_of_its_tokens():
    """Loading frees each transient at its last use: the split lines, the
    token strings and the repeat check never all live at once.  So parsing
    peaks no higher than holding the split lines and the tokens alone does
    (keeping the split lines alive through the build reads 10-12% higher),
    which is 17-20 times the text."""
    text = serialize_edge_list(layered_graph(_LAYERED_10X60))
    g, _, peak = _traced(lambda: parse_edge_list(text))
    assert (g.n, g.m) == (601, 10257)
    _, _, tokenized = _traced(lambda: (text.splitlines(), text.split()))
    assert peak <= 1.05 * tokenized, (peak, tokenized)
    assert peak <= 22 * sys.getsizeof(text), (peak, sys.getsizeof(text))


def test_a_canonical_parse_builds_no_list_of_lines():
    """Canonical text is tokenized by one ``text.split()``, so its parse
    peaks 1.16-1.19 times that split's own peak, and 13-15 times the text,
    on Python 3.10-3.13; splitting it into lines first read 1.54 and 17-20."""
    text = serialize_edge_list(layered_graph(_LAYERED_10X60))
    g, _, peak = _traced(lambda: parse_edge_list(text))
    assert (g.n, g.m) == (601, 10257)
    _, _, split = _traced(text.split)
    assert peak <= 1.3 * split, (peak, split)
    assert peak <= 16 * sys.getsizeof(text), (peak, sys.getsizeof(text))


def test_parsed_graph_keeps_at_most_40_bytes_per_edge():
    """The edges live only in the adjacency lists (28-31 B per edge); a
    tuple of m (u, v) pairs alone would add 56 B per edge."""
    text = serialize_edge_list(layered_graph(_LAYERED_10X60))
    g, kept, _ = _traced(lambda: parse_edge_list(text))
    assert kept <= 40 * g.m, (kept, g.m)


def test_loading_frees_the_token_strings_before_linking():
    """Only the first string of each label outlives the move to ids: the
    token list comes back empty, so its repeated strings die before the
    graph is linked, not when the parse returns."""
    tokens = "a b b c a c".split()
    g = _build_from_tokens(tokens, (), None)
    assert tokens == []
    assert (g.labels, g.m) == (("a", "b", "c"), 3)


def _collections(fn):
    """What ``fn()`` returns and how many collections of each generation
    running it triggered, counted from an emptied young generation."""
    gc.collect()
    before = [gen["collections"] for gen in gc.get_stats()]
    out = fn()
    after = [gen["collections"] for gen in gc.get_stats()]
    return out, [b - a for a, b in zip(before, after)]


@pytest.mark.parametrize("load", ["parse", "generate"])
def test_loading_makes_no_container_per_edge(load):
    """A loaded graph's containers are its 2n adjacency lists and tuples,
    made once each, so loading triggers about 4n / threshold young
    collections and no older one.  One (u, v) tuple per kept edge made the
    desk-scale parse read 43 young and 3 middle collections.  The counters
    are only read: no collector setting changes."""
    cfg = LayeredConfig(10, 100, 1, 4, seed=11)
    text = serialize_edge_list(layered_graph(cfg))
    load_graph = {"parse": lambda: parse_edge_list(text), "generate": lambda: layered_graph(cfg)}
    g, runs = _collections(load_graph[load])
    assert (g.n, g.m) == (1001, 28912)
    young = -(-4 * g.n // max(gc.get_threshold()[0], 1)) + 2
    assert runs[0] <= young and not any(runs[1:]), (runs, young)


def test_checking_a_good_graph_makes_no_container_per_edge():
    """Only a bad edge sends the build to the walk that names it, which
    keeps one (u, v) tuple per edge.  A cyclic graph is searched for a
    self-loop node by node, so it makes no container per edge."""
    g = layered_graph(LayeredConfig(10, 100, 1, 4, seed=11))
    text = serialize_edge_list(g) + f"{g.labels[-1]}\ts\n"  # closes cycles
    h, runs = _collections(lambda: parse_edge_list(text))
    assert (h.n, h.m) == (g.n, g.m + 1)
    young = -(-4 * g.n // max(gc.get_threshold()[0], 1)) + 2
    assert runs[0] <= young and not any(runs[1:]), (runs, young)
