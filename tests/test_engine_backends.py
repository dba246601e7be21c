"""Engine kernel bit-identity: treeops sweeps and incremental churn.

The engine is not allowed to be merely *close* to itself: the treeops
primitives pin the float-addition order, so the vectorised sweeps equal
the per-node loops ``==``-exactly, and an engine driven through any
sequence of incremental updates (rule changes, shield toggles, trims)
equals a freshly built engine on the same mutated routing bit for bit.
The kernel-vs-scalar-oracle ladder holds to 1e-9 (the scalar analyses
walk the stages in their own association order).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.designs import DesignSpec, generate_design, spec_by_name
from repro.core.flow import build_physical_design
from repro.core.targets import RobustnessTargets
from repro.cts.refine import refine_skew
from repro.engine import (AnalysisEngine, BatchedNetworkKernel,
                          FrozenVariation)
from repro.engine.treeops import (accumulate_downstream,
                                  accumulate_downstream_loop,
                                  accumulate_prefix, build_levels)
from repro.extract.extractor import extract
from repro.reliability.em import analyze_em
from repro.timing.arrival import analyze_clock_timing
from repro.timing.crosstalk import analyze_crosstalk
from repro.timing.montecarlo import run_monte_carlo

EQUIV_SIZES = ["ckt64", "ckt256", "ckt1024"]

ATOL = 1e-9

# Same shape as the conftest tiny fixture, but churn mutates its builds,
# so every hypothesis example gets fresh ones.
CHURN_SPEC = DesignSpec("tiny", n_sinks=24, die_edge=160.0,
                        aggressors_per_sink=2.0, seed=5)


# -- treeops micro-asserts (vectorised sweeps vs the legacy loops) ------------


def _random_forest(rng, n):
    """Random topological-order parent array, ~15% extra roots."""
    parent = np.full(n, -1, dtype=np.int64)
    for i in range(1, n):
        if rng.random() > 0.15:
            parent[i] = int(rng.integers(0, i))
    return parent


def test_downstream_sweep_is_bit_identical_to_loop():
    rng = np.random.default_rng(1234)
    for n in (1, 2, 7, 33, 200):
        for _ in range(5):
            parent = _random_forest(rng, n)
            values = rng.standard_normal(n) \
                * 10.0 ** rng.integers(-6, 7, n)
            fast = accumulate_downstream(values.copy(), parent,
                                         build_levels(parent))
            ref = accumulate_downstream_loop(values.copy(), parent)
            assert np.array_equal(fast, ref)


def test_downstream_sweep_is_bit_identical_to_loop_2d():
    # The Monte-Carlo sample axis rides along unchanged.
    rng = np.random.default_rng(99)
    parent = _random_forest(rng, 64)
    values = rng.standard_normal((64, 8)) * 10.0 ** rng.integers(-4, 5, (64, 8))
    fast = accumulate_downstream(values.copy(), parent,
                                 build_levels(parent))
    ref = accumulate_downstream_loop(values.copy(), parent)
    assert np.array_equal(fast, ref)


def test_prefix_sweep_is_bit_identical_to_loop():
    rng = np.random.default_rng(7)
    for n in (1, 13, 120):
        parent = _random_forest(rng, n)
        values = rng.standard_normal(n)
        fast = accumulate_prefix(values.copy(), parent,
                                 build_levels(parent))
        ref = values.copy()
        for i in range(n):
            if parent[i] >= 0:
                ref[i] += ref[parent[i]]
        assert np.array_equal(fast, ref)


def test_concatenated_forest_equals_per_tree_sweeps():
    # The whole-design arena processes all stage trees at once; each
    # parent only ever receives additions from its own children, so the
    # concatenated sweep must equal the per-tree sweeps bit for bit.
    rng = np.random.default_rng(42)
    sizes = [5, 11, 1, 30]
    parents, values, offsets = [], [], []
    base = 0
    for n in sizes:
        p = np.full(n, -1, dtype=np.int64)
        for i in range(1, n):
            p[i] = int(rng.integers(0, i))
        parents.append(p)
        values.append(rng.standard_normal(n))
        offsets.append(base)
        base += n
    concat_parent = np.concatenate(
        [np.where(p >= 0, p + off, -1)
         for p, off in zip(parents, offsets)])
    concat_values = np.concatenate(values)
    accumulate_downstream(concat_values, concat_parent,
                          build_levels(concat_parent))
    for p, v, off in zip(parents, values, offsets):
        per_tree = accumulate_downstream(v.copy(), p, build_levels(p))
        assert np.array_equal(concat_values[off:off + len(v)], per_tree)


def test_build_levels_rejects_non_topological_order():
    with pytest.raises(ValueError, match="topological"):
        build_levels(np.array([-1, 2, 0], dtype=np.int64))


# -- the kernel vs the scalar oracle over the size ladder ---------------------


@pytest.fixture(scope="module", params=EQUIV_SIZES)
def sized_physical(request, tech):
    """One built design per ladder rung; treated as read-only."""
    return build_physical_design(
        generate_design(spec_by_name(request.param)), tech)


def test_kernel_matches_scalar_oracle_on_ladder(sized_physical, tech):
    extraction = sized_physical.extraction
    network = extraction.network
    freq = sized_physical.design.clock_freq
    kernel = BatchedNetworkKernel(network, extraction.routing,
                                  extraction.wires)

    ts = analyze_clock_timing(network, tech)
    tk = kernel.static_timing(tech)
    assert [s.pin.full_name for s in tk.sinks] \
        == [s.pin.full_name for s in ts.sinks]
    np.testing.assert_allclose([s.arrival for s in tk.sinks],
                               [s.arrival for s in ts.sinks],
                               rtol=0.0, atol=ATOL)
    np.testing.assert_allclose([s.slew for s in tk.sinks],
                               [s.slew for s in ts.sinks],
                               rtol=0.0, atol=ATOL)
    np.testing.assert_allclose(tk.stage_loads, ts.stage_loads,
                               rtol=0.0, atol=ATOL)
    np.testing.assert_allclose(tk.stage_delays, ts.stage_delays,
                               rtol=0.0, atol=ATOL)

    xs = analyze_crosstalk(network, extraction.wires, alignment=0.5)
    xk = kernel.crosstalk(alignment=0.5)
    assert [s.pin.full_name for s in xk.sinks] \
        == [s.pin.full_name for s in xs.sinks]
    np.testing.assert_allclose([s.worst for s in xk.sinks],
                               [s.worst for s in xs.sinks],
                               rtol=0.0, atol=ATOL)
    np.testing.assert_allclose([s.expected for s in xk.sinks],
                               [s.expected for s in xs.sinks],
                               rtol=0.0, atol=ATOL)

    es = analyze_em(network, extraction.routing, tech.vdd, freq)
    ek = kernel.em(tech.vdd, freq)
    assert [w.wire_id for w in ek.wires] == [w.wire_id for w in es.wires]
    np.testing.assert_allclose([w.utilization for w in ek.wires],
                               [w.utilization for w in es.wires],
                               rtol=0.0, atol=ATOL)

    ms = run_monte_carlo(network, extraction.wires, extraction.routing,
                         tech, n_samples=32, seed=7)
    frozen = FrozenVariation(network, extraction.routing, tech,
                             n_samples=32, seed=7)
    mk = kernel.monte_carlo(frozen)
    assert mk.sink_names == ms.sink_names
    np.testing.assert_allclose(mk.arrivals, ms.arrivals, rtol=0.0,
                               atol=ATOL)


# -- random churn keeps the incremental engine equal to a fresh one -----------


def _assert_timing_identical(a, b):
    assert [s.pin.full_name for s in a.sinks] \
        == [s.pin.full_name for s in b.sinks]
    assert [s.arrival for s in a.sinks] == [s.arrival for s in b.sinks]
    assert [s.slew for s in a.sinks] == [s.slew for s in b.sinks]
    assert a.stage_loads == b.stage_loads
    assert a.stage_delays == b.stage_delays


def _assert_bundles_bit_identical(a, b):
    _assert_timing_identical(a.timing, b.timing)
    assert [s.worst for s in a.crosstalk.sinks] \
        == [s.worst for s in b.crosstalk.sinks]
    assert [s.expected for s in a.crosstalk.sinks] \
        == [s.expected for s in b.crosstalk.sinks]
    assert [w.wire_id for w in a.em.wires] == [w.wire_id for w in b.em.wires]
    assert [w.utilization for w in a.em.wires] \
        == [w.utilization for w in b.em.wires]
    assert a.power.p_total == b.power.p_total
    assert a.mc.sink_names == b.mc.sink_names
    assert np.array_equal(a.mc.arrivals, b.mc.arrivals)


def _assert_invalidated(engine):
    """Runtime twin of the static I001/I003 checks.

    After any mutation — before any analysis read — the engine-level
    derived caches must be dropped, and the kernel arena must be either
    marked stale or have dropped its derived caches.
    """
    assert engine._timing is None and engine._xtalk is None
    assert engine._power is None and engine._mc is None
    kernel = engine.kernel
    assert kernel._stale \
        or (kernel._down is None and kernel._xtalk is None)


def _assert_recomputed(engine):
    """After ``analyze()`` the caches are live again (the barrier ran)."""
    assert engine._timing is not None and engine._xtalk is not None
    assert not engine.kernel._stale


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_random_churn_matches_fresh_engine(data):
    """Random patch/retrim sequences keep the engine ``==`` a fresh one.

    One engine receives a mutation stream (rule upgrades, shield
    toggles, skew re-trims) against a fresh build; after every churn
    its bundle must be bitwise identical to that of an
    :class:`AnalysisEngine` freshly constructed over a full extraction
    of the same mutated routing.
    """
    from repro.tech import default_technology

    tech = default_technology()
    rules = sorted(tech.rules, key=lambda r: r.name.value)
    phys = build_physical_design(generate_design(CHURN_SPEC), tech)
    freq = phys.design.clock_freq
    targets = RobustnessTargets.for_period(phys.design.clock_period,
                                           tech.max_slew)
    engine = AnalysisEngine(extract(phys.tree, phys.routing), phys.tree,
                            tech, freq, targets)
    wire_ids = sorted(w.wire_id for w in phys.routing.clock_wires)

    # Any tree node that owns a stage works for the no-op retrim probe.
    trim_node = min(engine.extraction.network.stage_of_tree_node)

    def fresh_bundle():
        return AnalysisEngine(extract(phys.tree, phys.routing), phys.tree,
                              tech, freq, targets).analyze()

    n_ops = data.draw(st.integers(min_value=1, max_value=5))
    for _ in range(n_ops):
        op = data.draw(st.sampled_from(["rule", "shield", "trim"]))
        if op == "trim":
            refine_skew(phys.tree, phys.routing, tech, engine=engine)
            # refine_skew re-reads timing internally, so the
            # invalidation oracle needs its own mutation: a no-op
            # retrim of one stage (current trim values) must still
            # invalidate before any analysis read.
            engine.rebuild_stages([trim_node])
        else:
            wid = wire_ids[data.draw(
                st.integers(min_value=0, max_value=len(wire_ids) - 1))]
            rule = rules[data.draw(
                st.integers(min_value=0, max_value=len(rules) - 1))]
            if op == "rule":
                phys.routing.assign_rule(wid, rule)
            else:
                phys.routing.assign_shield(wid, True)
            engine.apply_rule_changes([wid])
        _assert_invalidated(engine)
        bundle = engine.analyze()
        _assert_recomputed(engine)
        _assert_bundles_bit_identical(bundle, fresh_bundle())
