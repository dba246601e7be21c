"""The parallel flow runner.

:class:`FlowRunner` executes a :class:`~repro.runner.matrix.RunMatrix`
(or any list of :class:`~repro.runner.matrix.JobSpec`) with a process
pool, deduplicating shared prerequisites and content-addressing every
product through an :class:`~repro.io.artifacts.ArtifactStore`:

* the all-NDR *reference* flow each slack-pegged cell needs for its
  budgets runs once per design — a cached upstream job, not a per-cell
  recomputation;
* the default-rule *build* is shared across every policy/slack cell of
  a design (each cell mutates its own snapshot);
* completed *cells* are cached whole, so a warm rerun of the same
  matrix is pure deserialisation;
* an ALL-NDR cell is the reference flow under different budgets — the
  runner re-wraps the cached reference instead of re-running it.

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
from dataclasses import dataclass, replace
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


@dataclass
class _ExecContext:
    """Everything a job execution needs besides the job itself."""

    tech: Technology
    store: Optional[ArtifactStore]
    guide: object = None
    return_flows: bool = False


def _reference_targets(design: Design, tech: Technology,
                       metrics: Optional[RefMetrics],
                       slack: Optional[float]) -> RobustnessTargets:
    """The cell's budgets: period-derived, or pegged to the reference."""
    if slack is None or metrics is None:
        return RobustnessTargets.for_period(design.clock_period,
                                            tech.max_slew)
    worst_delta, skew_3sigma = metrics
    return RobustnessTargets.from_reference(worst_delta=worst_delta,
                                            skew_3sigma=skew_3sigma,
                                            max_slew=tech.max_slew,
                                            slack=slack)


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
    design = resolve_design(job.design)
    targets = _reference_targets(design, ctx.tech, metrics, job.slack)
    store = ctx.store
    key = _cell_key(job, ctx, targets) if store is not None else None

    with obs.span(obs.CELL_SPAN, cell=job.label, design=str(job.design),
                  policy=job.policy.value) as cell:
        flow: Optional[FlowResult] = None
        cached = False
        if key is not None and store is not None:
            loaded = store.load(key)
            if isinstance(loaded, FlowResult):
                flow, cached = loaded, True
        if flow is None and key is not None and store is not None \
                and job.policy == Policy.ALL_NDR and job.slack is not None:
            # An ALL-NDR cell is the reference flow under pegged
            # budgets; re-wrap the cached reference instead of
            # re-running it (deterministic, so numerically identical).
            ref_job = job.reference_job()
            assert ref_job is not None  # slack is not None here
            ref_targets = _reference_targets(design, ctx.tech, None, None)
            ref_key = _cell_key(ref_job, ctx, ref_targets)
            reference = store.load(ref_key)
            if isinstance(reference, FlowResult):
                flow, cached = replace(reference, targets=targets), True
                store.save(key, flow)
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
        self._ref_metrics: dict[DesignRef, RefMetrics] = {}

    # -- single-cell API ------------------------------------------------------

    def _context(self, return_flows: bool) -> _ExecContext:
        return _ExecContext(tech=self.tech, store=self.store,
                            guide=self.guide, return_flows=return_flows)

    def run_job(self, job: JobSpec, return_flow: bool = True) -> JobResult:
        """Execute one cell in-process (references resolved as needed)."""
        metrics = self._metrics_for(job)
        return _execute_job(job, metrics, self._context(return_flow))

    def reference(self, design: DesignRef) -> FlowResult:
        """The design's all-NDR reference flow (cached upstream job)."""
        job = JobSpec(design=design, policy=Policy.ALL_NDR, slack=None)
        result = _execute_job(job, None, self._context(True))
        self._ref_metrics.setdefault(
            design, (result.summary["worst_delta_ps"],
                     result.summary["skew_3sigma_ps"]))
        assert result.flow is not None
        return result.flow

    def targets_for(self, design: DesignRef,
                    slack: float = 0.15) -> RobustnessTargets:
        """Budgets pegged to the design's cached all-NDR reference."""
        metrics = self._ref_metrics.get(design)
        if metrics is None:
            self.reference(design)
            metrics = self._ref_metrics[design]
        worst_delta, skew_3sigma = metrics
        return RobustnessTargets.from_reference(worst_delta=worst_delta,
                                                skew_3sigma=skew_3sigma,
                                                max_slew=self.tech.max_slew,
                                                slack=slack)

    def _metrics_for(self, job: JobSpec) -> Optional[RefMetrics]:
        if job.slack is None:
            return None
        if job.design not in self._ref_metrics:
            self.reference(job.design)
        return self._ref_metrics[job.design]

    # -- matrix API -----------------------------------------------------------

    def run(self, matrix: Union[RunMatrix, Iterable[JobSpec]],
            jobs: Optional[int] = None,
            return_flows: bool = False) -> list[JobResult]:
        """Execute every cell; results in matrix order.

        Phase 1 computes the deduplicated all-NDR references (one per
        design, shared by every slack and policy); phase 2 runs the
        cells.  With ``jobs > 1`` both phases use a process pool and
        duplicate cells execute once, fanning out to every position.

        When the session is traced, the whole run is one
        ``runner.matrix`` span; every worker's streamed trace payload
        is adopted (re-identified and re-rooted) directly under it, so
        the parallel run reads as one tree.
        """
        job_list = list(matrix)
        n_workers = self.jobs if jobs is None else max(1, int(jobs))
        n_workers = min(n_workers, max(len(job_list), 1))

        ref_jobs: list[JobSpec] = []
        seen_refs: set[DesignRef] = set()
        for job in job_list:
            ref = job.reference_job()
            if ref is not None and job.design not in seen_refs \
                    and job.design not in self._ref_metrics:
                seen_refs.add(job.design)
                ref_jobs.append(ref)

        with obs.span(obs.MATRIX_SPAN, cells=len(job_list),
                      references=len(ref_jobs),
                      workers=n_workers) as matrix_span:
            if n_workers <= 1:
                for ref in ref_jobs:
                    self.reference(ref.design)
                return [self.run_job(job, return_flow=return_flows)
                        for job in job_list]
            return self._run_pool(job_list, ref_jobs, n_workers,
                                  return_flows, matrix_span)

    def _run_pool(self, job_list: list[JobSpec], ref_jobs: list[JobSpec],
                  n_workers: int, return_flows: bool,
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

        with ProcessPoolExecutor(
                max_workers=n_workers,
                initializer=_pool_init,
                initargs=(self.tech,
                          str(self.store.root) if self.store else None,
                          self.guide, return_flows)) as pool:
            # Phase 1: deduplicated upstream references.
            for result in pool.map(_pool_run, ref_jobs,
                                   [None] * len(ref_jobs)):
                absorb(result)
                self._ref_metrics.setdefault(
                    result.job.design,
                    (result.summary["worst_delta_ps"],
                     result.summary["skew_3sigma_ps"]))

            # Phase 2: the cells, duplicates executed once.
            unique = list(dict.fromkeys(job_list))
            obs.counter("runner.cells_deduped").inc(
                len(job_list) - len(unique))
            metrics = [self._metrics_for(job) for job in unique]
            by_job = {job: absorb(result) for job, result in
                      zip(unique, pool.map(_pool_run, unique, metrics))}
        return [by_job[job] for job in job_list]
