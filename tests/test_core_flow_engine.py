"""The flow's skew trims on the incremental engine.

``run_flow`` extracts once per build and drives every skew trim through
an :class:`~repro.engine.AnalysisEngine`; a baseline policy re-extracts
only the clock wires it moved.  The scalar ``refine_skew(engine=None)``
loop is the oracle: driving the same stages through it must give the
same rule assignment and feasibility, and power and skew to within a
few ulps.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core import Policy, run_flow
from repro.core.flow import PhysicalDesign
from repro.core.stages import (PolicyParams, analyze_stage, open_engine,
                               policy_stage, retrim_stage)
from repro.core.targets import RobustnessTargets
from repro.cts.refine import refine_skew
from repro.cts.synthesize import synthesize_clock_tree
from repro.designs import generate_design, spec_by_name
from repro.engine import incremental
from repro.engine.batched import BatchedNetworkKernel
from repro.extract.extractor import extract
from repro.io.artifacts import ArtifactStore
from repro.route.router import Router
from repro.tech import rule_by_name

REL = 1e-12


def _traced_flow(monkeypatch, design, tech, policy, store=None):
    """Run one flow under a fresh tracer; return (result, tracer)."""
    # The suite-wide verification hook re-extracts as an oracle; keep
    # its extractions out of the counts.
    monkeypatch.delenv("REPRO_VERIFY_FLOWS", raising=False)
    with obs.capture("flow") as tracer:
        result = run_flow(design, tech, policy=policy, store=store)
    return result, tracer


def _count(tracer, name):
    metrics = tracer.metrics
    return metrics.value(name) if name in metrics else 0.0


def test_all_ndr_flow_extracts_once_then_incrementally(monkeypatch, tech):
    design = generate_design(spec_by_name("ckt256"))
    _, tracer = _traced_flow(monkeypatch, design, tech, Policy.ALL_NDR)
    assert _count(tracer, "extract.full") == 1
    assert _count(tracer, "engine.incremental_re_extracts") == 1
    builds = tracer.phase_totals()["flow.build"]["calls"]
    assert builds == _count(tracer, "extract.full")


def test_all_ndr_flow_compiles_only_its_two_opening_arenas(monkeypatch,
                                                          tech):
    """The build's trim engine and the flow's engine compile; trims splice.

    A trim that adds or removes a root snake splices that stage into the
    arena instead of recompiling it.
    """
    compiles = []
    original = BatchedNetworkKernel._compile

    def counting(self, parasitics):
        compiles.append(self)
        original(self, parasitics)

    monkeypatch.setattr(BatchedNetworkKernel, "_compile", counting)
    design = generate_design(spec_by_name("ckt64"))
    _, tracer = _traced_flow(monkeypatch, design, tech, Policy.ALL_NDR)
    assert len(compiles) == 2
    assert _count(tracer, "engine.compiles") == 2


def test_no_ndr_flow_re_extracts_nothing_after_build(monkeypatch, tech):
    design = generate_design(spec_by_name("ckt256"))
    _, tracer = _traced_flow(monkeypatch, design, tech, Policy.NO_NDR)
    assert _count(tracer, "extract.full") == 1
    assert _count(tracer, "engine.incremental_re_extracts") == 0


def test_store_snapshot_trims_on_the_same_engine_path(monkeypatch, tech,
                                                      tmp_path):
    """A cached build re-extracts the policy's wires only, same result."""
    design = generate_design(spec_by_name("ckt64"))
    store = ArtifactStore(tmp_path / "artifacts")
    fresh, _ = _traced_flow(monkeypatch, design, tech, Policy.ALL_NDR,
                            store=store)
    cached, tracer = _traced_flow(monkeypatch, design, tech,
                                  Policy.ALL_NDR, store=store)
    assert _count(tracer, "extract.full") == 0
    assert _count(tracer, "engine.incremental_re_extracts") == 1
    assert cached.clock_power == fresh.clock_power
    assert cached.analyses.timing.skew == fresh.analyses.timing.skew


def _scalar_trim_flow(design, tech, policy):
    """The flow's stages with every build/baseline trim on the oracle loop."""
    targets = RobustnessTargets.for_period(design.clock_period,
                                           tech.max_slew)
    cts = synthesize_clock_tree(design, tech)
    routing = Router(design, tech).route(cts.tree)
    refine = refine_skew(cts.tree, routing, tech)
    physical = PhysicalDesign(design=design, tech=tech, tree=cts.tree,
                              routing=routing, cts=cts, refine=refine)
    optimize = policy_stage(physical, targets, PolicyParams(policy=policy))
    if optimize is not None:
        engine = optimize.engine
        retrim_stage(physical, engine)
    else:
        engine = None
        physical.refine = refine_skew(cts.tree, routing, tech)
    analyses = analyze_stage(physical, targets, engine=engine)
    return routing.rule_histogram(), analyses, targets


@pytest.mark.parametrize("policy", [Policy.NO_NDR, Policy.ALL_NDR,
                                    Policy.SMART])
@pytest.mark.parametrize("name", ["ckt64", "soc_h64", "imp_uart"])
def test_flow_matches_scalar_trim_oracle(name, policy, tech):
    spec = spec_by_name(name)
    result = run_flow(generate_design(spec), tech, policy=policy)
    histogram, analyses, targets = _scalar_trim_flow(
        generate_design(spec), tech, policy)
    assert result.rule_histogram == histogram
    assert result.feasible == analyses.feasible(targets)
    assert result.clock_power == pytest.approx(analyses.power.p_total,
                                               rel=REL)
    assert result.analyses.timing.skew == pytest.approx(
        analyses.timing.skew, rel=REL)


@pytest.fixture
def draw_counter(monkeypatch):
    """Count FrozenVariation constructions inside the engine module."""
    built = []
    original = incremental.FrozenVariation

    def counting(*args, **kwargs):
        built.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(incremental, "FrozenVariation", counting)
    return built


def test_timing_only_engine_never_draws_variation(draw_counter,
                                                  make_small_physical, tech):
    physical = make_small_physical()
    design = physical.design
    targets = RobustnessTargets.for_period(design.clock_period,
                                           tech.max_slew)
    engine = open_engine(physical.extraction, physical.tree, tech,
                         design.clock_freq, targets)
    wires = [w.wire_id for w in physical.routing.clock_wires[:5]]
    for wid in wires:
        physical.routing.assign_rule(wid, rule_by_name("W2S2"))
    engine.apply_rule_changes(wires)
    refine_skew(physical.tree, physical.routing, tech, engine=engine)
    engine.static_timing()
    assert draw_counter == []


def test_baseline_flow_never_draws_variation(draw_counter, tiny_design,
                                             tech):
    run_flow(tiny_design, tech, policy=Policy.ALL_NDR)
    assert draw_counter == []


def test_late_monte_carlo_equals_fresh_seeded_run(draw_counter,
                                                  make_small_physical, tech):
    """Draws built after a rule change equal a fresh engine's draws."""
    physical = make_small_physical()
    design = physical.design
    targets = RobustnessTargets.for_period(design.clock_period,
                                           tech.max_slew)
    engine = open_engine(physical.extraction, physical.tree, tech,
                         design.clock_freq, targets)
    wires = [w.wire_id for w in physical.routing.clock_wires[::3]]
    for wid in wires:
        physical.routing.assign_rule(wid, rule_by_name("W2S1"))
    engine.apply_rule_changes(wires)
    late = engine.analyze().mc
    assert len(draw_counter) == 1

    fresh = open_engine(extract(physical.tree, physical.routing),
                        physical.tree, tech, design.clock_freq,
                        targets).analyze().mc
    assert late.sink_names == fresh.sink_names
    np.testing.assert_allclose(late.arrivals, fresh.arrivals,
                               rtol=0.0, atol=1e-9)
    assert late.skew_3sigma == pytest.approx(fresh.skew_3sigma, abs=1e-9)
