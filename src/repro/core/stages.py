"""The flow as a typed stage pipeline.

``run_flow`` used to be a monolith; it is now a composition of four
stages, each consuming and producing serializable artifacts:

``build``
    CTS + routing + skew trim with every wire on the default rule.  The
    build extracts once and trims on a build-local
    :class:`~repro.engine.AnalysisEngine`, so a trim pass re-times only
    the stages it touched.
    Deterministic in (design, technology, stage params), so its product
    is content-addressed: with an :class:`~repro.io.artifacts.ArtifactStore`
    the build is computed once per design and *shared* across policies,
    slacks, and repeat invocations.  Per-policy fresh-build semantics
    are preserved because the store always hands back a snapshot (a
    fresh deserialisation) that the policy stage may mutate freely.
``policy``
    Rule assignment: one of the uniform baselines, the random baseline,
    the greedy optimizer, or the ML guide.  Mutates the routing in
    place and returns the optimizer result (None for baselines).
``retrim``
    Re-trim skew after the rule changes shifted stage delays, on the
    flow's engine (the optimizer's, or one :func:`open_engine` opened
    on the build extraction for a baseline policy).
``analyze``
    The full robustness/power analysis bundle of the final extraction:
    on the optimizer's engine for the optimizing policies, on the
    scalar analyses for the baselines.

The scalar ``refine_skew(engine=None)`` loop is not on this path; it
stays the oracle the engine trims are checked against.

Each stage opens an :func:`repro.obs.span` named ``flow.<stage>`` so a
traced run shows the pipeline breakdown per cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro import obs
from repro.core.evaluation import AnalysisBundle, analyze_all
from repro.core.optimizer import OptimizeResult, SmartNdrOptimizer
from repro.core.policies import (Policy, apply_random_policy,
                                 apply_uniform_policy)
from repro.core.targets import RobustnessTargets
from repro.cts.refine import refine_skew
from repro.cts.synthesize import synthesize_clock_tree
from repro.cts.tree import ClockTree
from repro.extract.extractor import Extraction, extract
from repro.netlist.design import Design
from repro.route.router import Router
from repro.tech.technology import Technology

if TYPE_CHECKING:
    from repro.engine import AnalysisEngine


@dataclass(frozen=True)
class BuildParams:
    """Parameters the ``build`` stage is content-addressed by."""

    max_stage_cap: float = 0.0


@dataclass(frozen=True)
class PolicyParams:
    """Parameters the ``policy`` stage is content-addressed by.

    ``random_fraction``/``random_seed`` only matter to ``RANDOM``;
    ``lambda_track`` only to the optimizing policies —
    they are normalised out of the fingerprint for the others (see
    :meth:`normalized`) so e.g. an ALL_NDR cell hashes identically no
    matter what optimizer knobs rode along.
    """

    policy: Policy = Policy.SMART
    random_fraction: float = 0.3
    random_seed: int = 0
    lambda_track: float = 0.05

    def normalized(self) -> "PolicyParams":
        """Drop knobs the policy does not read (stable cache keys)."""
        if self.policy == Policy.RANDOM:
            return PolicyParams(policy=self.policy,
                                random_fraction=self.random_fraction,
                                random_seed=self.random_seed)
        if self.policy in (Policy.SMART, Policy.SMART_SHIELD):
            return PolicyParams(policy=self.policy,
                                lambda_track=self.lambda_track)
        return PolicyParams(policy=self.policy)


def build_stage(design: Design, tech: Technology,
                params: BuildParams = BuildParams(),
                store=None) -> "PhysicalDesign":
    """CTS + route + trim on the default rule; cached when ``store`` given.

    A cache hit returns a fresh deserialisation (never a shared live
    object), so the caller may mutate the result; a cache miss builds,
    snapshots the pristine state into the store, and returns the live
    build.
    """
    from repro.core.flow import PhysicalDesign

    if store is not None:
        from repro.io.artifacts import (content_key, design_fingerprint,
                                        technology_fingerprint)
        key = content_key("build",
                          design=design_fingerprint(design),
                          tech=technology_fingerprint(tech),
                          params=params)
        cached = store.load(key)
        if cached is not None and isinstance(cached, PhysicalDesign):
            return cached

    with obs.span("flow.build"):
        cts = synthesize_clock_tree(design, tech,
                                    max_stage_cap=params.max_stage_cap)
        routing = Router(design, tech).route(cts.tree)
        # A trim moves stage-root pads and snakes, never a routed wire:
        # extract once, then let each trim pass re-time only what moved.
        targets = RobustnessTargets.for_period(design.clock_period,
                                               tech.max_slew)
        engine = open_engine(extract(cts.tree, routing), cts.tree, tech,
                             design.clock_freq, targets)
        refine = refine_skew(cts.tree, routing, tech, engine=engine)
        physical = PhysicalDesign(design=design, tech=tech, tree=cts.tree,
                                  routing=routing, cts=cts, refine=refine)
    if store is not None:
        store.save(key, physical)
    return physical


def open_engine(extraction: Extraction, tree: ClockTree, tech: Technology,
                freq: float,
                targets: RobustnessTargets) -> "AnalysisEngine":
    """An :class:`~repro.engine.AnalysisEngine` over ``extraction``.

    Opening compiles the kernel; the Monte-Carlo draws wait for the
    first Monte Carlo, so an engine that only drives skew trims never
    allocates them.
    """
    # Imported lazily: repro.engine pulls repro.core.evaluation back in,
    # which would cycle at module-import time.
    from repro.engine import AnalysisEngine
    return AnalysisEngine(extraction, tree, tech, freq, targets)


def policy_stage(physical: "PhysicalDesign", targets: RobustnessTargets,
                 params: PolicyParams,
                 guide=None) -> Optional[OptimizeResult]:
    """Assign routing rules per ``params.policy`` (mutates the routing)."""
    tree, routing, tech = physical.tree, physical.routing, physical.tech
    freq = physical.design.clock_freq
    policy = params.policy

    with obs.span("flow.policy"):
        if policy in (Policy.NO_NDR, Policy.ALL_NDR, Policy.WIDTH_ONLY,
                      Policy.SPACE_ONLY):
            apply_uniform_policy(routing, policy)
            return None
        if policy == Policy.RANDOM:
            apply_random_policy(routing, params.random_fraction,
                                seed=params.random_seed)
            return None
        if policy in (Policy.SMART, Policy.SMART_SHIELD):
            optimizer = SmartNdrOptimizer(
                tree, routing, tech, targets, freq,
                lambda_track=params.lambda_track,
                use_shielding=(policy == Policy.SMART_SHIELD))
            with obs.span("flow.optimize"):
                return optimizer.run()
        if policy == Policy.SMART_ML:
            if guide is None:
                raise ValueError("Policy.SMART_ML requires a fitted guide")
            return guide.assign(tree, routing, tech, targets, freq)
        raise ValueError(f"unhandled policy {policy}")  # pragma: no cover


def retrim_stage(physical: "PhysicalDesign",
                 engine: "AnalysisEngine") -> None:
    """Re-trim skew after rule changes; updates ``physical.refine``.

    ``engine`` is the flow's incremental engine over the same routing
    (its extraction already follows the policy's rule changes), so the
    trim rebuilds only the touched stages instead of re-extracting the
    whole network.
    """
    with obs.span("flow.retrim"):
        physical.refine = refine_skew(physical.tree, physical.routing,
                                      physical.tech, engine=engine)


def analyze_stage(physical: "PhysicalDesign", targets: RobustnessTargets,
                  engine=None) -> AnalysisBundle:
    """Full analysis bundle of the (re-trimmed) extraction.

    With ``engine`` the bundle comes from its cached incremental
    analyses; without one, from the scalar analyses.
    """
    with obs.span("flow.analyze"):
        return analyze_all(physical.extraction, physical.tech,
                           physical.design.clock_freq, targets,
                           engine=engine)
