"""The parallel flow runner.

:class:`FlowRunner` executes a :class:`~repro.runner.matrix.RunMatrix`
(or any list of :class:`~repro.runner.matrix.JobSpec`) with a process
pool, deduplicating shared prerequisites and content-addressing every
product through an :class:`~repro.io.artifacts.ArtifactStore`:

* the all-NDR *reference* flow each slack-pegged cell needs for its
  budgets runs once per design — a cached upstream job, not a per-cell
  recomputation;
* a slack-pegged ALL-NDR cell *is* the reference flow under other
  budgets, and budgets change only its feasibility verdict: the parent
  derives that cell from the reference's result, with the store on or
  off and on the serial and pool paths alike — it never runs a flow;
* each design reference resolves once per runner (once per pool
  worker), and the default-rule *build* is shared across every
  policy/slack cell of a design through the store (each cell mutates
  its own snapshot);
* completed *cells* are cached whole, so a warm rerun of the same
  matrix is pure deserialisation.

Both reuses are scoped to one runner — one request: nothing a runner
memoises outlives it.

Every cell is one ``runner.cell`` span on the installed tracer.  A
pool worker captures its cell and streams the :mod:`repro.obs` payload
— span tree plus metric deltas — back on :attr:`JobResult.trace`; when
the parent session is traced, :meth:`FlowRunner.run` adopts each one
under its ``runner.matrix`` span, so a parallel run yields one coherent
trace.  Flow verification is ``run_flow``'s ``REPRO_VERIFY_FLOWS``
hook alone; workers inherit the variable with the parent's environment.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterable, Optional, Union

from repro import obs
from repro.core.flow import FlowResult, run_flow
from repro.core.policies import Policy
from repro.core.targets import RobustnessTargets
from repro.io.artifacts import ArtifactStore, content_key
from repro.netlist.design import Design
from repro.runner.matrix import (DesignRef, JobSpec, RunMatrix,
                                 design_ref_fingerprint, resolve_design)
from repro.tech.technology import Technology, default_technology

#: (worst_delta_ps, skew_3sigma_ps) of a design's all-NDR reference.
RefMetrics = tuple[float, float]

#: Environment variables worker processes honor (they inherit the
#: parent's environment).  The static determinism analyzer
#: (``repro lint --static``) allows env access to exactly these names
#: from worker-reachable code; reading anything else is a D003/S003
#: finding because a worker would silently diverge from the parent.
FORWARDED_ENV_WHITELIST: tuple[str, ...] = ("REPRO_VERIFY_FLOWS",
                                            "REPRO_CACHE_DIR")


@dataclass
class JobResult:
    """What one matrix cell streams back to the parent.

    Always lightweight-serializable: summary metrics and the rule
    histogram.  ``trace`` is the cell's span tree + metric deltas
    (:meth:`repro.obs.Tracer.export_payload`) when the cell ran in a
    pool worker; it is ``None`` for in-process cells (their spans land
    on the installed tracer directly) and once a traced parent has
    adopted it — adoption is by span identity, exactly once.  The full
    :class:`FlowResult` rides along only when the caller asked for it
    (``return_flows=True``); it is pickled across the process boundary
    in that case.
    """

    job: JobSpec
    summary: dict[str, float]
    rule_histogram: dict[str, int]
    ndr_track_cost: float
    feasible: bool
    runtime: float
    cached: bool = False
    trace: Optional[dict[str, Any]] = None
    flow: Optional[FlowResult] = None

    @property
    def metrics(self) -> RefMetrics:
        """The (worst delta, 3-sigma skew) pair budgets peg to."""
        return (self.summary["worst_delta_ps"],
                self.summary["skew_3sigma_ps"])


@dataclass
class _ExecContext:
    """Everything a job execution needs besides the job itself.

    ``designs`` memoises resolved design references for the context's
    lifetime: one runner in-process, one pool worker otherwise.
    """

    tech: Technology
    store: Optional[ArtifactStore]
    guide: object = None
    return_flows: bool = False
    designs: dict[DesignRef, Design] = field(default_factory=dict)

    def design(self, ref: DesignRef) -> Design:
        """``ref`` materialised, once per context (flows never mutate it)."""
        design = self.designs.get(ref)
        if design is None:
            design = self.designs[ref] = resolve_design(ref)
        return design


def _reference_targets(design: Design, tech: Technology,
                       metrics: Optional[RefMetrics],
                       slack: Optional[float]) -> RobustnessTargets:
    """The cell's budgets: period-derived, or pegged to the reference."""
    if slack is None or metrics is None:
        return RobustnessTargets.for_period(design.clock_period,
                                            tech.max_slew)
    return _pegged_targets(metrics, tech, slack)


def _pegged_targets(metrics: RefMetrics, tech: Technology,
                    slack: float) -> RobustnessTargets:
    """Budgets within ``slack`` of the reference's achieved metrics."""
    worst_delta, skew_3sigma = metrics
    return RobustnessTargets.from_reference(worst_delta=worst_delta,
                                            skew_3sigma=skew_3sigma,
                                            max_slew=tech.max_slew,
                                            slack=slack)


def _derives_from_reference(job: JobSpec) -> bool:
    """True for a slack-pegged ALL-NDR cell: its reference's flow."""
    return job.policy == Policy.ALL_NDR and job.slack is not None


def _guide_fingerprint(guide: Any) -> str:
    """Content hash of a fitted guide (cached on the instance)."""
    from repro.io.artifacts import fingerprint
    from repro.ml.serialize import forest_to_dict

    fp = getattr(guide, "_content_fp", None)
    if fp is None:
        fp = fingerprint(forest_to_dict(guide.model))
        guide._content_fp = fp
    return str(fp)


def _cell_key(job: JobSpec, ctx: _ExecContext,
              targets: RobustnessTargets) -> str:
    """Content hash identifying one completed cell result."""
    parts = {
        "design": design_ref_fingerprint(job.design),
        "tech": ctx.tech,
        "policy": job.policy_params(),
        "targets": targets,
    }
    if job.policy == Policy.SMART_ML and ctx.guide is not None:
        parts["guide"] = _guide_fingerprint(ctx.guide)
    return content_key("flow-cell", **parts)


def _execute_job(job: JobSpec, metrics: Optional[RefMetrics],
                 ctx: _ExecContext) -> JobResult:
    """Run (or load) one cell and package the streamed result.

    The cell is one ``runner.cell`` span on the installed tracer (free
    when the session is untraced); :func:`_pool_run` captures it in a
    worker.
    """
    start = time.perf_counter()  # static: ok[D002] feeds JobResult.runtime metadata only
    design = ctx.design(job.design)
    targets = _reference_targets(design, ctx.tech, metrics, job.slack)
    store = ctx.store
    key = _cell_key(job, ctx, targets) if store is not None else None

    with obs.span(obs.CELL_SPAN, cell=job.label, design=str(job.design),
                  policy=job.policy.value) as cell:
        flow: Optional[FlowResult] = None
        if key is not None and store is not None:
            loaded = store.load(key)
            if isinstance(loaded, FlowResult):
                flow = loaded
        cached = flow is not None
        if flow is None:
            flow = run_flow(design, ctx.tech, policy=job.policy,
                            targets=targets,
                            random_fraction=job.random_fraction,
                            random_seed=job.random_seed,
                            lambda_track=job.lambda_track,
                            guide=ctx.guide, store=ctx.store)
            if key is not None and store is not None:
                store.save(key, flow)
        if cell is not None:
            cell.attrs["cached"] = cached
        obs.counter("runner.cells_cached" if cached
                    else "runner.cells_computed").inc()

    return JobResult(
        job=job,
        summary=flow.summary(),
        rule_histogram=dict(flow.rule_histogram),
        ndr_track_cost=flow.ndr_track_cost,
        feasible=flow.feasible,
        runtime=time.perf_counter() - start,  # static: ok[D002] feeds JobResult.runtime metadata only
        cached=cached,
        flow=flow if ctx.return_flows else None,
    )


def _derive_pegged_cell(job: JobSpec, reference: JobResult,
                        ref_flow: Optional[FlowResult],
                        tech: Technology) -> JobResult:
    """A slack-pegged ALL-NDR cell, taken from its reference's result.

    The cell is the reference flow (deterministic) judged against
    pegged budgets, so only ``feasible`` is recomputed — from the same
    four summary metrics :meth:`AnalysisBundle.violations` reads.  The
    flow is attached when ``ref_flow`` is given, sharing the
    reference's physical build and analyses.  The cell is still one
    ``runner.cell`` span (``cached=True``), so trace shapes match a
    computed cell's position in the tree.
    """
    start = time.perf_counter()  # static: ok[D002] feeds JobResult.runtime metadata only
    assert job.slack is not None
    targets = _pegged_targets(reference.metrics, tech, job.slack)
    with obs.span(obs.CELL_SPAN, cell=job.label, design=str(job.design),
                  policy=job.policy.value, cached=True):
        summary = dict(reference.summary)
        feasible = not targets.violations(summary["worst_delta_ps"],
                                          summary["skew_3sigma_ps"],
                                          summary["worst_slew_ps"],
                                          summary["em_worst_util"])
        summary["feasible"] = 1.0 if feasible else 0.0
        obs.counter("runner.cells_cached").inc()
    runtime = time.perf_counter() - start  # static: ok[D002] feeds JobResult.runtime metadata only
    return JobResult(
        job=job,
        summary=summary,
        rule_histogram=dict(reference.rule_histogram),
        ndr_track_cost=reference.ndr_track_cost,
        feasible=feasible,
        runtime=runtime,
        cached=True,
        flow=(replace(ref_flow, targets=targets)
              if ref_flow is not None else None),
    )


# -- worker-process plumbing --------------------------------------------------

_WORKER_CTX: Optional[_ExecContext] = None


def _pool_init(tech: Technology, store_root: Optional[str],
               guide: object, return_flows: bool) -> None:
    """Per-worker initializer: rebuild the execution context."""
    global _WORKER_CTX
    # A forked worker inherits the parent's installed tracer; drop it so
    # no span lands in the fork's copy of the parent's buffers.
    obs.disable()
    store = ArtifactStore(store_root) if store_root is not None else None
    _WORKER_CTX = _ExecContext(tech=tech, store=store, guide=guide,  # static: ok[D004] per-worker context slot, written once by the pool initializer before any job runs
                               return_flows=return_flows)


def _pool_run(job: JobSpec, metrics: Optional[RefMetrics]) -> JobResult:
    """Pool entry point: execute one job under a captured tracer.

    The cell's span tree and metric deltas ride back on
    :attr:`JobResult.trace` for the parent to adopt.
    """
    assert _WORKER_CTX is not None, "pool used before initialization"
    with obs.capture(f"cell:{job.label}") as tracer:
        result = _execute_job(job, metrics, _WORKER_CTX)
    result.trace = tracer.export_payload()
    return result


class FlowRunner:
    """Schedules a job matrix over a process pool with artifact reuse.

    A runner serves one request: it memoises each design reference's
    resolved design and each all-NDR reference's result for its own
    lifetime, and shares neither with any other runner.

    Parameters
    ----------
    tech:
        Technology shared by every cell (default technology if omitted).
    store:
        ``ArtifactStore`` instance, a path for one, or ``None`` to
        disable caching entirely.  Defaults to the persistent
        per-user cache (:func:`~repro.io.artifacts.default_cache_dir`).
    jobs:
        Default worker count for :meth:`run`; ``1`` executes in-process
        (same code path, no pool).
    guide:
        Fitted :class:`~repro.core.mlguide.NdrClassifierGuide` for
        SMART_ML cells; shipped to each worker once via the pool
        initializer.
    """

    def __init__(self, tech: Optional[Technology] = None,
                 store: Union[ArtifactStore, str, Path, None, bool] = True,
                 jobs: int = 1, guide: object = None) -> None:
        self.tech = tech if tech is not None else default_technology()
        resolved: Optional[ArtifactStore]
        if isinstance(store, ArtifactStore):
            resolved = store
        elif isinstance(store, bool):
            resolved = ArtifactStore() if store else None
        elif store is None:
            resolved = None
        else:
            resolved = ArtifactStore(store)
        self.store: Optional[ArtifactStore] = resolved
        self.jobs = max(1, int(jobs))
        self.guide = guide
        #: Each design's all-NDR reference result, kept without its flow.
        self._references: dict[DesignRef, JobResult] = {}
        self._designs: dict[DesignRef, Design] = {}

    # -- single-cell API ------------------------------------------------------

    def _context(self, return_flows: bool) -> _ExecContext:
        return _ExecContext(tech=self.tech, store=self.store,
                            guide=self.guide, return_flows=return_flows,
                            designs=self._designs)

    def run_job(self, job: JobSpec, return_flow: bool = True) -> JobResult:
        """Execute one cell in-process (references resolved as needed)."""
        return self._run_serial(
            [job], self._references_to_run([job], return_flow),
            return_flow)[0]

    def reference(self, design: DesignRef) -> FlowResult:
        """The design's all-NDR reference flow (cached upstream job)."""
        job = JobSpec(design=design, policy=Policy.ALL_NDR, slack=None)
        result = _execute_job(job, None, self._context(True))
        flow = self._keep_reference(result)
        assert flow is not None
        return flow

    def targets_for(self, design: DesignRef,
                    slack: float = 0.15) -> RobustnessTargets:
        """Budgets pegged to the design's cached all-NDR reference."""
        if design not in self._references:
            self.reference(design)
        return _pegged_targets(self._references[design].metrics, self.tech,
                               slack)

    def _keep_reference(self, result: JobResult) -> Optional[FlowResult]:
        """Remember a reference's result without its flow; return the flow."""
        self._references[result.job.design] = replace(result, flow=None,
                                                      trace=None)
        return result.flow

    def _references_to_run(self, job_list: list[JobSpec],
                           return_flows: bool) -> list[DesignRef]:
        """Designs whose reference this run must compute, in job order.

        A reference is known once computed; it runs again only when a
        derived ALL-NDR cell must carry its flow, which is not kept.
        """
        out: list[DesignRef] = []
        for job in job_list:
            if job.slack is None or job.design in out:
                continue
            if job.design not in self._references or (
                    return_flows and _derives_from_reference(job)):
                out.append(job.design)
        return out

    def _cell(self, job: JobSpec, ref_flows: dict[DesignRef, FlowResult],
              ctx: _ExecContext) -> JobResult:
        """One in-process cell: derived from its reference, or executed."""
        if _derives_from_reference(job):
            return _derive_pegged_cell(job, self._references[job.design],
                                       ref_flows.get(job.design), self.tech)
        return _execute_job(job, self._metrics_for(job), ctx)

    def _metrics_for(self, job: JobSpec) -> Optional[RefMetrics]:
        """The reference metrics a pegged cell's budgets derive from."""
        if job.slack is None:
            return None
        return self._references[job.design].metrics

    def _run_serial(self, job_list: list[JobSpec],
                    ref_designs: list[DesignRef],
                    return_flows: bool) -> list[JobResult]:
        """Both phases in-process: references, then every cell in order."""
        # Hold a reference flow only when cells must carry it: a live
        # reference would otherwise sit in memory through every cell.
        ref_flows: dict[DesignRef, FlowResult] = {}
        for design in ref_designs:
            if return_flows:
                ref_flows[design] = self.reference(design)
            else:
                self.reference(design)
        ctx = self._context(return_flows)
        return [self._cell(job, ref_flows, ctx) for job in job_list]

    # -- matrix API -----------------------------------------------------------

    def run(self, matrix: Union[RunMatrix, Iterable[JobSpec]],
            jobs: Optional[int] = None,
            return_flows: bool = False) -> list[JobResult]:
        """Execute every cell; results in matrix order.

        Phase 1 computes the deduplicated all-NDR references (one per
        design, shared by every slack and policy); phase 2 runs the
        cells, deriving each slack-pegged ALL-NDR cell from its
        reference in the parent.  With ``jobs > 1`` both phases use a
        process pool and duplicate cells execute once, fanning out to
        every position.

        When the session is traced, the whole run is one
        ``runner.matrix`` span; every worker's streamed trace payload
        is adopted (re-identified and re-rooted) directly under it, so
        the parallel run reads as one tree.
        """
        job_list = list(matrix)
        n_workers = self.jobs if jobs is None else max(1, int(jobs))
        n_workers = min(n_workers, max(len(job_list), 1))
        ref_designs = self._references_to_run(job_list, return_flows)

        with obs.span(obs.MATRIX_SPAN, cells=len(job_list),
                      references=len(ref_designs),
                      workers=n_workers) as matrix_span:
            if n_workers <= 1:
                return self._run_serial(job_list, ref_designs, return_flows)
            return self._run_pool(job_list, ref_designs, n_workers,
                                  return_flows, matrix_span)

    def _run_pool(self, job_list: list[JobSpec],
                  ref_designs: list[DesignRef], n_workers: int,
                  return_flows: bool,
                  matrix_span: Optional[obs.SpanRecord]) -> list[JobResult]:
        """The pooled phases of :meth:`run` (references, then cells)."""
        tracer = obs.active()

        def absorb(result: JobResult) -> JobResult:
            # Re-root the worker's span tree + metric deltas under the
            # matrix span, once; the payload is consumed so no later
            # pass can count it again.
            if tracer is not None and result.trace is not None:
                parent = (matrix_span.span_id
                          if matrix_span is not None else None)
                tracer.adopt(result.trace, parent_id=parent)
                result.trace = None
            return result

        ref_jobs = [JobSpec(design=d, policy=Policy.ALL_NDR, slack=None)
                    for d in ref_designs]
        ref_flows: dict[DesignRef, FlowResult] = {}
        with ProcessPoolExecutor(
                max_workers=n_workers,
                initializer=_pool_init,
                initargs=(self.tech,
                          str(self.store.root) if self.store else None,
                          self.guide, return_flows)) as pool:
            # Phase 1: deduplicated upstream references.
            for result in pool.map(_pool_run, ref_jobs,
                                   [None] * len(ref_jobs)):
                flow = self._keep_reference(absorb(result))
                if flow is not None:
                    ref_flows[result.job.design] = flow

            # Phase 2: the cells, duplicates executed once; pegged
            # ALL-NDR cells are derived here, never dispatched.
            unique = list(dict.fromkeys(job_list))
            obs.counter("runner.cells_deduped").inc(
                len(job_list) - len(unique))
            dispatched = [job for job in unique
                          if not _derives_from_reference(job)]
            metrics = [self._metrics_for(job) for job in dispatched]
            by_job = {job: absorb(result) for job, result in
                      zip(dispatched,
                          pool.map(_pool_run, dispatched, metrics))}
        ctx = self._context(return_flows)
        for job in unique:
            if job not in by_job:
                by_job[job] = self._cell(job, ref_flows, ctx)
        return [by_job[job] for job in job_list]
