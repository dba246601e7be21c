"""FlowRunner / RunMatrix: expansion, dedupe, parallel == serial."""

from __future__ import annotations

import dataclasses

import pytest

from repro import api, obs
from repro.core import Policy
from repro.core.flow import run_flow
from repro.core.stages import PolicyParams
from repro.runner import (FlowRunner, JobSpec, RunMatrix,
                          design_ref_fingerprint, resolve_design)
from repro.tech import default_technology

POLICIES = (Policy.NO_NDR, Policy.ALL_NDR, Policy.SMART)

#: Low supply for :func:`tight_ref`: keeps EM legal at its 3.3 GHz clock.
TIGHT_TECH = dataclasses.replace(default_technology(), vdd=0.3)


@pytest.fixture(scope="module")
def tiny_ref(tmp_path_factory, tiny_design) -> str:
    """The tiny design as a JSON design reference."""
    from repro.io import save_design

    path = tmp_path_factory.mktemp("designs") / "tiny.json"
    save_design(tiny_design, path)
    return str(path)


@pytest.fixture(scope="module")
def tight_ref(tmp_path_factory) -> str:
    """ckt64 at a 300 ps period, for :data:`TIGHT_TECH`.

    Its all-NDR reference misses the period's delta-delay and 3-sigma
    budgets yet meets the slew and EM limits, so the pegged ALL-NDR
    cell is feasible where the reference is not.
    """
    from repro.designs import generate_design, spec_by_name
    from repro.io import save_design

    design = dataclasses.replace(generate_design(spec_by_name("ckt64")),
                                 clock_period=300.0)
    path = tmp_path_factory.mktemp("designs") / "ckt64_300ps.json"
    save_design(design, path)
    return str(path)


def _runner(tmp_path, **kwargs) -> FlowRunner:
    kwargs.setdefault("store", str(tmp_path / "artifacts"))
    return FlowRunner(**kwargs)


# -- matrix declarations ------------------------------------------------------


def test_matrix_expansion_is_design_major():
    matrix = RunMatrix(designs=("a", "b"), policies=(Policy.SMART,
                                                     Policy.NO_NDR),
                       slacks=(0.15, 0.4))
    jobs = matrix.jobs()
    assert len(matrix) == len(jobs) == 8
    assert [j.design for j in jobs[:4]] == ["a"] * 4
    assert jobs[0] == JobSpec(design="a", policy=Policy.SMART, slack=0.15)
    assert jobs[1].slack == 0.4


def test_matrix_rejects_empty():
    with pytest.raises(ValueError):
        RunMatrix(designs=(), policies=())
    with pytest.raises(ValueError):
        RunMatrix(designs=("a",), policies=())


def test_reference_job_pegs_to_all_ndr():
    cell = JobSpec(design="a", policy=Policy.SMART, slack=0.15)
    ref = cell.reference_job()
    assert ref == JobSpec(design="a", policy=Policy.ALL_NDR, slack=None)
    assert ref.reference_job() is None  # a reference has no reference


def test_policy_params_normalisation_drops_unread_knobs():
    smart = JobSpec(design="a", policy=Policy.SMART, random_seed=9)
    assert smart.policy_params() == PolicyParams(policy=Policy.SMART)
    rand = JobSpec(design="a", policy=Policy.RANDOM, random_seed=9)
    assert rand.policy_params().random_seed == 9
    # Uniform policies hash identically no matter the knobs.
    a = JobSpec(design="a", policy=Policy.ALL_NDR, random_seed=1)
    b = JobSpec(design="a", policy=Policy.ALL_NDR, random_seed=2)
    assert a.policy_params() == b.policy_params()


def test_design_ref_fingerprint_tracks_file_content(tiny_ref, tmp_path):
    from pathlib import Path

    assert design_ref_fingerprint(tiny_ref) == \
        design_ref_fingerprint(tiny_ref)
    copy = tmp_path / "edited.json"
    copy.write_text(Path(tiny_ref).read_text().replace("tiny", "tinier"))
    assert design_ref_fingerprint(str(copy)) != \
        design_ref_fingerprint(tiny_ref)
    # Benchmark names fingerprint their spec.
    assert design_ref_fingerprint("ckt64") == design_ref_fingerprint("ckt64")
    assert design_ref_fingerprint("ckt64") != design_ref_fingerprint("ckt128")


def test_resolve_design_roundtrip(tiny_ref, tiny_design):
    design = resolve_design(tiny_ref)
    assert design.name == tiny_design.name
    assert len(design.clock_sinks) == len(tiny_design.clock_sinks)


# -- determinism --------------------------------------------------------------


def test_run_flow_is_bitwise_deterministic(tiny_design):
    """Two invocations with the same inputs agree to the last bit."""
    first = run_flow(tiny_design, policy=Policy.SMART)
    second = run_flow(tiny_design, policy=Policy.SMART)
    assert first.summary() == second.summary()
    assert first.rule_histogram == second.rule_histogram


def test_worker_process_matches_in_process(tiny_ref, tmp_path):
    """A cell run in a pool worker equals the same cell run in-process."""
    jobs = [JobSpec(design=tiny_ref, policy=p) for p in POLICIES]
    serial = _runner(tmp_path / "a").run(jobs)
    parallel = _runner(tmp_path / "b").run(jobs, jobs=2)
    for s, p in zip(serial, parallel):
        assert s.summary == p.summary  # bitwise: exact float equality
        assert s.rule_histogram == p.rule_histogram
        assert s.feasible == p.feasible


# -- caching and dedupe -------------------------------------------------------


def test_reference_computed_once_per_design(tiny_ref, tmp_path):
    runner = _runner(tmp_path)
    matrix = RunMatrix(designs=(tiny_ref,), policies=(Policy.SMART,),
                       slacks=(0.6, 0.15))
    runner.run(matrix)
    assert list(runner._references) == [tiny_ref]
    # Both cells pegged to the same reference; looser budget never
    # needs more upgrades than the tighter one.
    targets_loose = runner.targets_for(tiny_ref, slack=0.6)
    targets_tight = runner.targets_for(tiny_ref, slack=0.15)
    assert targets_loose.max_worst_delta > targets_tight.max_worst_delta


def test_all_ndr_cell_rewraps_cached_reference(tiny_ref, tight_ref,
                                              tmp_path):
    """A pegged ALL-NDR cell reuses the reference flow, not a re-run,
    with the store on or off; only its feasibility is re-judged."""
    cases = ((tiny_ref, default_technology()), (tight_ref, TIGHT_TECH))
    for n, (ref, tech) in enumerate(cases):
        direct = None
        for store in (str(tmp_path / f"artifacts{n}"), None):
            runner = FlowRunner(tech=tech, store=store)
            tracer = obs.enable("rewrap")
            try:
                (result,) = runner.run([JobSpec(design=ref,
                                                policy=Policy.ALL_NDR)],
                                       return_flows=True)
            finally:
                obs.disable()
            assert result.cached  # cold store, yet served from the reference
            assert tracer.phase_totals()["flow.build"]["calls"] == 1
            if direct is None:
                direct = run_flow(resolve_design(ref), tech,
                                  policy=Policy.ALL_NDR,
                                  targets=runner.targets_for(ref))
            assert result.summary == direct.summary()
            assert result.feasible == direct.feasible
            assert result.flow is not None
            assert result.flow.targets == direct.targets
            assert result.flow.feasible == result.feasible
            reference = runner._references[ref]
            if ref == tight_ref:
                assert result.feasible and not reference.feasible
            else:
                assert result.feasible == reference.feasible


def test_each_design_resolved_once(tiny_ref, monkeypatch):
    import repro.runner.runner as runner_module

    calls: list[str] = []

    def counting_resolve(ref):
        calls.append(ref)
        return resolve_design(ref)

    monkeypatch.setattr(runner_module, "resolve_design", counting_resolve)
    runner = FlowRunner(store=None)
    runner.run([JobSpec(design=tiny_ref, policy=p) for p in POLICIES])
    runner.run_job(JobSpec(design=tiny_ref, policy=Policy.NO_NDR,
                           slack=None))
    assert calls == [tiny_ref]
    # A new runner is a new request: nothing carries over.
    FlowRunner(store=None).run_job(JobSpec(design=tiny_ref,
                                           policy=Policy.NO_NDR, slack=None))
    assert calls == [tiny_ref, tiny_ref]


def test_serial_and_pool_compare_reports_equal(tiny_ref):
    def cells(jobs: int) -> list:
        report = api.compare(api.CompareRequest(design=tiny_ref),
                             jobs=jobs, store=False)
        return [dataclasses.replace(c, runtime_s=0.0) for c in report.cells]

    serial = cells(1)
    assert serial == cells(2)
    assert [c.cached for c in serial] == [False, True, False]


def test_warm_rerun_is_fully_cached(tiny_ref, tmp_path):
    runner = _runner(tmp_path)
    jobs = [JobSpec(design=tiny_ref, policy=p) for p in POLICIES]
    cold = runner.run(jobs)
    warm = FlowRunner(store=str(tmp_path / "artifacts")).run(jobs)
    assert all(r.cached for r in warm)
    assert [r.summary for r in warm] == [r.summary for r in cold]


def test_duplicate_cells_fan_out(tiny_ref, tmp_path):
    runner = _runner(tmp_path)
    job = JobSpec(design=tiny_ref, policy=Policy.SMART)
    results = runner.run([job, job], jobs=2)
    assert len(results) == 2
    assert results[0].summary == results[1].summary


def test_store_disabled_still_runs(tiny_ref):
    runner = FlowRunner(store=False)
    assert runner.store is None
    result = runner.run_job(JobSpec(design=tiny_ref, policy=Policy.SMART))
    assert result.feasible and not result.cached


# -- streamed traces and verification -----------------------------------------


def _descends_from(record, ancestor_id, by_id) -> bool:
    while record.parent_id is not None:
        if record.parent_id == ancestor_id:
            return True
        record = by_id[record.parent_id]
    return False


def test_worker_cell_spans_stream_back(tiny_ref):
    """Every pooled cell's span tree comes home: each adopted
    ``runner.cell`` span carries its flow's ``flow.policy`` span.  The
    pegged ALL-NDR cell is derived in the parent and runs no flow."""
    jobs = [JobSpec(design=tiny_ref, policy=p) for p in POLICIES]
    tracer = obs.enable("pool")
    try:
        results = FlowRunner(store=None).run(jobs, jobs=2)
    finally:
        obs.disable()
    assert all(r.trace is None for r in results)  # adopted and consumed
    by_id = {r.span_id: r for r in tracer.records}
    cells = [r for r in tracer.records if r.name == obs.CELL_SPAN]
    assert len(cells) == 4  # 3 cells + the shared all-NDR reference
    policies = [r for r in tracer.records if r.name == "flow.policy"]
    adopted = [c for c in cells if not c.attrs["cached"]]
    assert len(adopted) == 3
    for cell in adopted:
        assert any(_descends_from(r, cell.span_id, by_id) for r in policies)
    (derived,) = [c for c in cells if c.attrs["cached"]]
    assert derived.attrs["policy"] == Policy.ALL_NDR.value
    assert not any(_descends_from(r, derived.span_id, by_id)
                   for r in tracer.records)


def test_untraced_run_job_records_no_trace(tiny_ref):
    """An untraced in-process cell builds no trace payload at all."""
    assert obs.active() is None
    result = FlowRunner(store=None).run_job(
        JobSpec(design=tiny_ref, policy=Policy.NO_NDR, slack=None))
    assert result.trace is None


def test_verify_hook_runs_once_per_computed_cell(tiny_ref, monkeypatch):
    """``REPRO_VERIFY_FLOWS`` is the one verification trigger: a computed
    cell runs the flow checks once, in-process and in a pool worker."""
    import repro.verify

    monkeypatch.setenv("REPRO_VERIFY_FLOWS", "1")
    real_run_checks = repro.verify.run_checks
    passes: list[int] = []

    def counting_run_checks(*args, **kwargs):
        report = real_run_checks(*args, **kwargs)
        passes.append(len(report.checks_run))
        return report

    monkeypatch.setattr(repro.verify, "run_checks", counting_run_checks)
    jobs = [JobSpec(design=tiny_ref, policy=p, slack=None)
            for p in (Policy.NO_NDR, Policy.ALL_NDR)]

    FlowRunner(store=None).run_job(jobs[0])
    assert len(passes) == 1
    checks_per_pass = passes[0]

    # Pool workers count on their captured tracer; the parent adopts it.
    tracer = obs.enable("verify")
    try:
        FlowRunner(store=None).run(jobs, jobs=2)
    finally:
        obs.disable()
    checks = tracer.metrics.export()["verify.checks_run"]["value"]
    assert checks == len(jobs) * checks_per_pass
