"""Machine-speed reference: a fixed pure-Python loop timed beside the ops.

The CPU speed a process gets on a shared host is not steady.  On a
2-core x86-64 VM the same flow ran up to 35% faster for a minute at a
time, and this loop's own time moved between about 19 and 38 ms from
one sample to the next.  A run of the benchmark is shorter than such a
phase, so a median over the ops of one run cannot remove it.

The loop does the same fixed work every time (object allocation, dict
updates, float arithmetic, a sort, like the program's Python layers).
It is timed in the process that times the ops, between ops, never
beside them, and never calls into the program.  The timed metrics are
reported at the reference speed::

    time_at_reference = time_measured * NOMINAL_S / loop_time

where ``loop_time`` is the mean of the middle 60% of the run's loop
samples.  A program change moves the ops and not the loop, so it moves
the scaled value as much as the measured one; a machine phase moves
both, and the ratio cancels most of it.  Every run also prints the
measured values and the factor.
"""

from __future__ import annotations

import gc
import statistics
import time

#: About the loop's time on the machine the benchmark was calibrated on
#: (the VM above).  It only sets the scale, so that scaled values read as
#: milliseconds and seconds on that machine.
NOMINAL_S = 0.030

#: Reference-loop samples a flow process takes before each op.
SAMPLES_PER_OP = 5


class _Node:
    __slots__ = ("key", "weight")

    def __init__(self, key: int, weight: float) -> None:
        self.key = key
        self.weight = weight


def reference_loop() -> float:
    """Run the fixed reference work once; return its wall time (s).

    The cyclic garbage collector is off while it runs: a collection
    walks the caller's whole heap, which would time the program's live
    objects instead of the machine.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _timed_work()
    finally:
        if was_enabled:
            gc.enable()


def _timed_work() -> float:
    start = time.perf_counter()
    table: dict[int, float] = {}
    nodes = []
    acc = 0.0
    for i in range(40000):
        node = _Node(i & 511, (i % 13) * 0.75)
        nodes.append(node)
        table[node.key] = table.get(node.key, 0.0) + node.weight
        acc += node.weight * 1.0001 - (i & 3)
    nodes.sort(key=lambda n: n.weight)
    acc += sum(table.values()) + nodes[0].weight
    if acc != acc:  # keeps the work observable
        raise RuntimeError("reference loop produced NaN")
    return time.perf_counter() - start


def scale(samples: list[float]) -> float:
    """Factor that turns a measured time into one at reference speed.

    The speed estimate is the mean of the middle 60% of the samples: a
    single sample can land on a stall, and the speed switches between
    modes often enough that a plain median jumps between them.
    """
    ordered = sorted(samples)
    cut = len(ordered) // 5
    return NOMINAL_S / statistics.fmean(ordered[cut:len(ordered) - cut])

