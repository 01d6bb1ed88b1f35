"""The layered benchmark generator: a pure function of its config and seed."""

import random
import sys
from dataclasses import dataclass

from .graph import CGraph


@dataclass(frozen=True)
class LayeredConfig:
    """Config of the layered benchmark generator.

    Nodes are spread uniformly over ``levels`` levels (expected
    ``expected_width`` nodes per level); an edge runs from a level-i node
    to a level-j node (j > i) with probability min(1, x / y**(j - i)), so
    nearby levels connect densely and distant ones rarely.
    """

    levels: int = 10
    expected_width: int = 100
    x: float = 1.0
    y: float = 4.0
    seed: int = 0

    def __post_init__(self):
        if self.levels < 2:
            raise ValueError("levels must be >= 2")
        if self.expected_width < 1:
            raise ValueError("expected_width must be >= 1")
        if not (0 < self.x <= sys.float_info.max and 0 < self.y <= sys.float_info.max):
            raise ValueError("x and y must be positive and finite as floats")


def layered_edge_probability(cfg: LayeredConfig, gap: int) -> float:
    """min(1, x / y**gap); its limit, 0 or 1, where y**gap over- or underflows."""
    try:
        scale = float(cfg.y) ** gap
    except OverflowError:
        return 0.0
    return min(1.0, cfg.x / scale) if scale else 1.0


def layered_graph(cfg: LayeredConfig) -> CGraph:
    """Generate a layered graph plus a source node feeding level 1.

    The node count is exactly levels * expected_width (+1 for the source).
    The draw order is the seed -> graph contract, pinned by
    ``test_layered_graph_outputs_pinned``: one ``randrange`` per node for
    its level, then one ``random()`` per pair with level[u] > level[v],
    v-major and u ascending, keeping v -> u when it falls below p(gap).
    """
    rng = random.Random(cfg.seed)
    n = cfg.levels * cfg.expected_width
    level = [rng.randrange(cfg.levels) for _ in range(n)]  # 0-based levels

    # per level, the nodes above it, ascending ("s" is index 0), and the
    # edge probability to each node by index: no object per pair.  The
    # edges go out as flat ids v, u, v, u', ...
    prob = [layered_edge_probability(cfg, gap) for gap in range(cfg.levels)]
    above = [[u for u, lu in enumerate(level, 1) if lu > lv] for lv in range(cfg.levels)]
    p_to = [[0.0] + [prob[lu - lv] if lu > lv else 0.0 for lu in level]
            for lv in range(cfg.levels)]
    draw = rng.random
    ids = [x for v, lv in enumerate(level, 1) if lv == 0 for x in (0, v)]
    for v, lv in enumerate(level, 1):
        p_v = p_to[lv]
        heads = [u for u in above[lv] if draw() < p_v[u]]
        pairs = [v] * (2 * len(heads))
        pairs[1::2] = heads  # v, heads[0], v, heads[1], ...
        ids += pairs
    return CGraph._from_ids(["s"] + [f"n{i}" for i in range(n)], ids, [0])
