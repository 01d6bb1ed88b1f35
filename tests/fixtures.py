"""Small hand-built graphs used throughout the test suite."""

from flowfilter.graph import CGraph, build_graph, parse_edge_list

FANIN_TSV = """\
s\tx
s\ty
x\tz1
x\tz2
y\tz2
y\tz3
z1\tw
z2\tw
z3\tw
"""

DEGREE_TRAP_TSV = """\
s\tu1
s\tu2
s\tu3
u1\tA
u2\tA
u3\tA
A\tt
s\tB
B\tb1
B\tb2
B\tb3
B\tb4
"""


def g_fanin() -> CGraph:
    """Fan-out/fan-in graph: the sink w collects 1 + 2 + 1 copies."""
    return parse_edge_list(FANIN_TSV)


def g_degree_trap() -> CGraph:
    """Graph where the best degree product and the best true gain disagree.

    A has in-degree 3 and a single out-edge (removing 2 redundant copies);
    B has in-degree 1 and four out-edges (removing nothing).
    """
    return parse_edge_list(DEGREE_TRAP_TSV)


def g_diamond() -> CGraph:
    """Two parallel branches merging into c, then a tail."""
    return build_graph(
        [("s", "a"), ("s", "b"), ("a", "c"), ("b", "c"), ("c", "d")]
    )


def g_tree1() -> CGraph:
    """A communication tree: removing s leaves the tree r -> {a, b}, a -> c."""
    return build_graph(
        [("s", "r"), ("s", "a"), ("r", "a"), ("r", "b"), ("a", "c")]
    )


def g_mergers() -> CGraph:
    """Two branches merging into a path m1 -> m2 -> m3 -> t.

    Every path node looks high-impact in isolation, but a single filter at
    m1 already removes everything the others could.
    """
    return build_graph(
        [
            ("s", "a"),
            ("s", "b"),
            ("a", "m1"),
            ("b", "m1"),
            ("m1", "m2"),
            ("m2", "m3"),
            ("m3", "t"),
        ]
    )


def g_diamond_chain(k: int = 70) -> CGraph:
    """k diamonds in a row, s -> {a0, b0} -> j0 -> {a1, b1} -> j1 -> ...

    j_i receives 2**(i + 1) copies with no filters, so at k = 70 the path
    counts exceed 2**64.
    """
    edges = [("s", "a0"), ("s", "b0")]
    for i in range(k):
        edges += [(f"a{i}", f"j{i}"), (f"b{i}", f"j{i}")]
        if i + 1 < k:
            edges += [(f"j{i}", f"a{i + 1}"), (f"j{i}", f"b{i + 1}")]
    return build_graph(edges)
