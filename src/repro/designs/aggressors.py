"""Aggressor (signal) net generation.

Signal nets are what couples to the clock: local nets with a driver and
a handful of sinks within a locality radius, with toggle activities
drawn from a skewed distribution (most nets quiet, some hot) — the
standard shape of switching-activity profiles from real workloads.

The SoC generators place traffic non-uniformly by calling
:func:`generate_aggressors` once per region with a ``region`` rectangle
(driver placement constrained), a ``name_offset`` (so per-region
batches never collide on net names) and an ``activity_scale`` (hotspot
and gated-domain weighting).  The defaults reproduce the legacy flat
placement bit-identically.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.geom.point import Point
from repro.geom.rect import Rect
from repro.netlist.cell import CellKind, PinDirection
from repro.netlist.design import Design
from repro.netlist.net import NetKind


def _clamped_point(rng: np.random.Generator, center: Point, radius: float,
                   design: Design) -> Point:
    die = design.die
    for _ in range(50):
        # Builtin clamps on Python floats: same values as a scalar
        # ``np.clip``, without its array dispatch.
        x = min(max(center.x + float(rng.uniform(-radius, radius)),
                    die.xlo), die.xhi)
        y = min(max(center.y + float(rng.uniform(-radius, radius)),
                    die.ylo), die.yhi)
        p = Point(x, y)
        if not any(b.contains(p) for b in design.blockages):
            return p
    # Desperation fallback: a uniformly random legal point.
    while True:
        p = Point(float(rng.uniform(die.xlo, die.xhi)),
                  float(rng.uniform(die.ylo, die.yhi)))
        if not any(b.contains(p) for b in design.blockages):
            return p


def generate_aggressors(design: Design, rng: np.random.Generator,
                        count: int, locality: float = 60.0,
                        mean_activity: float = 0.15,
                        fanout_range: tuple[int, int] = (2, 5),
                        with_windows: bool = False,
                        region: Optional[Rect] = None,
                        name_offset: int = 0,
                        activity_scale: float = 1.0) -> None:
    """Add ``count`` signal nets to ``design`` in place.

    Activities follow a Beta distribution shaped to ``mean_activity``
    (long quiet tail, a few hot nets), matching switching profiles from
    real traces.  With ``with_windows``, each net also gets a switching
    window (10-40% of the cycle, uniformly placed) — the input for
    timing-window crosstalk pruning.

    ``region`` confines driver placement to a sub-rectangle of the die
    (net sinks may still spill up to ``locality`` outside it);
    ``name_offset`` shifts the generated net/instance indices so
    repeated per-region calls compose; ``activity_scale`` multiplies
    every drawn activity (clipped to [0, 1]).
    """
    if count < 0:
        raise ValueError("aggressor count must be non-negative")
    area = design.die if region is None else region
    lo_fan, hi_fan = fanout_range
    if lo_fan < 1 or hi_fan < lo_fan:
        raise ValueError(f"bad fanout range {fanout_range}")
    # Beta(a, b) with mean a/(a+b) = mean_activity, a < 1 for a quiet-heavy
    # shape.
    a = 0.8
    b = a * (1.0 - mean_activity) / mean_activity
    for i in range(name_offset, name_offset + count):
        while True:
            driver_loc = Point(float(rng.uniform(area.xlo, area.xhi)),
                               float(rng.uniform(area.ylo, area.yhi)))
            if not any(b.contains(driver_loc) for b in design.blockages):
                break
        driver_inst = design.add_instance(
            f"agg_drv_{i}", CellKind.GATE, driver_loc, cell_name="INV")
        driver_pin = driver_inst.add_pin("Z", PinDirection.OUTPUT)

        activity = min(max(float(rng.beta(a, b)) * activity_scale, 0.0),
                       1.0)
        net = design.add_net(f"sig_{i}", NetKind.SIGNAL, activity=activity)
        if with_windows:
            width = float(rng.uniform(0.1, 0.4)) * design.clock_period
            start = float(rng.uniform(0.0, design.clock_period - width))
            net.window = (start, start + width)
        net.connect_driver(driver_pin)

        fanout = int(rng.integers(lo_fan, hi_fan + 1))
        for k in range(fanout):
            sink_loc = _clamped_point(rng, driver_loc, locality, design)
            sink_inst = design.add_instance(
                f"agg_snk_{i}_{k}", CellKind.GATE, sink_loc, cell_name="INV")
            sink_pin = sink_inst.add_pin("A", PinDirection.INPUT, cap=1.2)
            net.connect_sink(sink_pin)
