"""A fixed reference kernel that measures how fast the host is right now.

On a shared host the speed of the same pure-Python code drifts by a third
or more over minutes, as neighbours come and go, with finer jitter on top;
every wall-clock metric inherits that drift.  While a ``RefKernel`` is
entered, a wall-clock timer (SIGALRM, handled in the main thread, so no
thread or process is added) runs one kernel unit every INTERVAL_S, in the
middle of the program's own work.  The benchmark subtracts the kernel's
time from each CLI call and multiplies each measured time by UNIT_S over
the kernel's mean unit time during the same stretch.

The kernel is the benchmark's own code (checks.py reading a graph and
propagating over it) on a fixed desk-scale graph that depends on neither
the seed nor flowfilter, so a change to the program moves the scaled
metrics exactly as it moves the raw ones.
"""

import gc
import random
import signal
import time

import checks

# Scaled times are "seconds on a host where one kernel unit takes UNIT_S".
UNIT_S = 0.005
# One unit every INTERVAL_S of wall time: about a fifth of the time.
INTERVAL_S = 0.025


def _layered_edges(levels: int, width: int, fan_in: int) -> list[tuple[str, str]]:
    rng = random.Random("perfbench-refkernel")
    edges = [("s", f"n0_{j}") for j in range(width)]
    for level in range(1, levels):
        for j in range(width):
            edges += [(f"n{level - 1}_{p}", f"n{level}_{j}")
                      for p in rng.sample(range(width), fan_in)]
    return edges


class RefKernel:
    """One unit reads a slice of the edge list and propagates over the whole
    graph: memory traffic and interpreter work like the program's layers."""

    def __init__(self, slices: int = 16):
        edges = _layered_edges(levels=10, width=100, fan_in=30)
        self.graph = checks.Graph("".join(f"{u}\t{v}\n" for u, v in edges), "s")
        rng = random.Random("perfbench-refkernel-filters")
        step = -(-len(edges) // slices)
        self.slices = ["".join(f"{u}\t{v}\n" for u, v in edges[i:i + step])
                       for i in range(0, len(edges), step)]
        self.filters = [set(rng.sample(range(len(self.graph.nodes)), 50))
                        for _ in self.slices]
        self.units = 0
        self.seconds = 0.0
        self._busy = False
        self._old_handler = None

    def unit(self) -> None:
        """One unit, with the cyclic GC off so that its time does not depend
        on how many objects the program keeps alive."""
        i = self.units % len(self.slices)
        gc_was_on = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        checks.receipts(self.graph, self.filters[i])
        checks.Graph(self.slices[i])
        self.seconds += time.perf_counter() - t0
        self.units += 1
        if gc_was_on:
            gc.enable()

    def _tick(self, signum, frame) -> None:
        if not self._busy:  # a tick that lands inside a unit is dropped
            self._busy = True
            try:
                self.unit()
            finally:
                self._busy = False

    def __enter__(self) -> "RefKernel":
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def mark(self) -> tuple[int, float]:
        return self.units, self.seconds

    def scale_since(self, mark: tuple[int, float]) -> float:
        """UNIT_S over the mean unit time since ``mark``: multiply a wall time
        measured over the same stretch (minus the kernel's own time) by it.
        A stretch too short to hold a unit uses the mean of every unit so far."""
        if self.units == mark[0]:
            mark = (0, 0.0)
        return UNIT_S * (self.units - mark[0]) / (self.seconds - mark[1])
