"""The benchmark's repro-importing side: one fresh process per role.

Roles (first argument):

* ``probe``  -- import the package and build the technology, then exit;
  the set-up time of a flow process.
* ``flow``   -- one flow workload (``compare_corpus`` or ``uniform_large``)
  in closed loop for whole passes, optionally under the layer tracer.
* ``daemon`` -- a ``repro serve`` daemon on an ephemeral port with its own
  store root, optionally with the layer tracer installed before the
  worker pool forks.
* ``check``  -- re-run a list of ``FlowRequest`` dicts in-process
  (``api.run``, store disabled) and print their result digests.
* ``designs`` -- write the re-salted serve designs as design JSON.

Every role prints one JSON line as its last line of standard output.
``--launched`` is the parent's ``time.monotonic()`` just before it
started this process, so set-up time counts interpreter start too.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import random
import resource
import sys
import time
from typing import Any, Callable

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import refspeed  # noqa: E402  (stdlib-only module beside this one)

#: The compare corpus: one design per corpus family (synthetic,
#: hierarchical, gated, imported) plus the two blockage designs.  Sized
#: so a pass takes a few seconds and a run repeats every design.
COMPARE_DESIGNS = ("ckt256", "soc_h256", "soc_g128", "imp_uart",
                   "imp_noc", "soc_h256m")
UNIFORM_DESIGN = "ckt1024"
UNIFORM_POLICIES = ("all-ndr", "no-ndr")
#: The serve designs; the generated ones are re-salted by a non-default seed.
SERVE_DESIGNS = ("ckt64", "ckt128", "soc_h64", "imp_uart")
DEFAULT_SEED = 0
#: Whole passes every flow run makes, however short ``--seconds`` is, so
#: each op key has enough repeats for a median.
MIN_PASSES = 3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(obj: Any) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def cell_digest(power_uw: float, rule_histogram: dict, feasible: bool) -> str:
    """Result identity of one cell: power, rule histogram, feasibility."""
    return digest({"power_uw": repr(float(power_uw)),
                   "rules": dict(sorted(rule_histogram.items())),
                   "feasible": bool(feasible)})


def emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


# -- set-up ------------------------------------------------------------------


def setup(launched: float) -> tuple[Any, Any, float]:
    """Imports plus technology: what every flow process pays first."""
    from repro import api
    from repro.tech import default_technology

    tech = default_technology()
    return api, tech, time.monotonic() - launched


def role_probe(args: argparse.Namespace) -> None:
    _api, _tech, setup_s = setup(args.launched)
    emit({"setup_s": setup_s})


# -- flow workloads ----------------------------------------------------------


def _compare_op(api: Any, tech: Any, design: str) -> dict:
    report = api.compare(api.CompareRequest(design=design), jobs=1,
                         store=False, tech=tech)
    cells = {c.policy: c for c in report.cells}
    return {
        "digest": digest({p: cell_digest(c.power_uw, c.rule_histogram,
                                         c.feasible)
                          for p, c in sorted(cells.items())}),
        "saving_pct": report.smart_saving_pct,
        "smart_feasible": cells["smart"].feasible,
        "all_feasible": cells["all-ndr"].feasible,
        "smart_power": cells["smart"].power_uw,
        "all_power": cells["all-ndr"].power_uw,
    }


def _uniform_op(api: Any, tech: Any, policy: str) -> dict:
    report = api.run(api.FlowRequest(design=UNIFORM_DESIGN, policy=policy,
                                     slack=None),
                     jobs=1, store=False, tech=tech)
    return {"digest": cell_digest(report.power_uw, report.rule_histogram,
                                  report.feasible)}


def flow_pass(workload: str, seed: int) -> list[str]:
    """The op keys of one pass, ordered by the workload seed."""
    keys = list(COMPARE_DESIGNS if workload == "compare_corpus"
                else UNIFORM_POLICIES)
    random.Random(seed).shuffle(keys)
    return keys


def role_flow(args: argparse.Namespace) -> None:
    api, tech, setup_s = setup(args.launched)
    run_op: Callable[[Any, Any, str], dict] = (
        _compare_op if args.workload == "compare_corpus" else _uniform_op)
    tracer = None
    if args.trace:
        import tracer

        from repro import obs

        tracer.install()
        # Installs the program's metric registry, for its own counters.
        obs.enable("perfbench")
    order = flow_pass(args.workload, args.seed)
    ops: list[dict] = []
    #: Reference-loop times, a few before each op (see refspeed).
    ref_s: list[float] = []
    started = time.monotonic()
    last_pass = 0.0
    # Whole passes only, so every op key is repeated equally often, and
    # a new pass beyond the first MIN_PASSES only when the last one says
    # it fits in --seconds.
    passes = 0
    while passes < MIN_PASSES or (time.monotonic() - started + last_pass
                                  <= args.seconds):
        pass_start = time.monotonic()
        for key in order:
            ref_s.extend(refspeed.reference_loop()
                         for _ in range(refspeed.SAMPLES_PER_OP))
            t0 = time.perf_counter()
            record: dict[str, Any] = {"key": key}
            try:
                if tracer is not None:
                    record.update(tracer.op(run_op, api, tech, key))
                else:
                    record.update(run_op(api, tech, key))
                record["ok"] = True
            except Exception as exc:  # noqa: BLE001 - counted, not fatal
                record.update(ok=False,
                              error=f"{type(exc).__name__}: {exc}")
            record["latency_s"] = time.perf_counter() - t0
            ops.append(record)
        last_pass = time.monotonic() - pass_start
        passes += 1
    elapsed = time.monotonic() - started
    out: dict[str, Any] = {"setup_s": setup_s, "elapsed_s": elapsed,
                           "passes": passes, "ops": ops, "ref_s": ref_s,
                           "peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        out["layers"] = tracer.RECORDER.summary()
        out["counters"] = {k: v["value"] for k, v in
                           obs.active().metrics.export().items()
                           if "value" in v}
        tracer.RECORDER.write(args.spans_out)
    emit(out)


# -- serve -------------------------------------------------------------------


def role_designs(args: argparse.Namespace) -> None:
    """Serve design refs: registered names, or re-salted design JSON."""
    import dataclasses

    from repro.designs import generate_design, spec_by_name
    from repro.io import save_design

    refs = {}
    for name in SERVE_DESIGNS:
        spec = spec_by_name(name)
        if args.seed == DEFAULT_SEED or spec.generator == "imported":
            refs[name] = name
            continue
        salted = dataclasses.replace(
            spec, seed_salt=f"{spec.effective_seed_salt}#seed{args.seed}")
        path = os.path.join(args.out_dir, f"{name}.s{args.seed}.json")
        save_design(generate_design(salted), path)
        refs[name] = os.path.abspath(path)
    emit({"designs": refs})


def _install_daemon_tracer() -> None:
    """Layer spans in the daemon and, via fork, in its pool workers.

    A worker ships the spans of each request back inside the result
    dict; the daemon side pops them before the result is used and
    merges them into its own recorder.
    """
    import tracer as tracer_mod

    import repro.serve.workers as workers

    tracer_mod.install()
    original_run = workers._serve_pool_run

    def _serve_pool_run(payload: dict) -> dict:
        result = original_run(payload)
        result["perfbench_layers"] = tracer_mod.RECORDER.export(reset=True)
        return result

    _serve_pool_run.__qualname__ = original_run.__qualname__
    _serve_pool_run.__module__ = original_run.__module__
    workers._serve_pool_run = _serve_pool_run

    original_execute = workers.WorkerPool.execute

    async def execute(self: Any, payload: dict) -> dict:
        result = await original_execute(self, payload)
        layers = result.pop("perfbench_layers", None)
        if layers is not None:
            tracer_mod.RECORDER.merge(layers)
        return result

    workers.WorkerPool.execute = execute  # type: ignore[method-assign]


async def _daemon_main(args: argparse.Namespace) -> dict:
    from repro.serve import ServeConfig, ServeDaemon

    config = ServeConfig(host="127.0.0.1", port=0, workers=2,
                         store_root=args.store, warm=True)
    daemon = ServeDaemon(config)
    await daemon.start()
    emit({"ready": True, "port": daemon.port,
          "setup_s": time.monotonic() - args.launched})
    await daemon.run_until_shutdown()
    return daemon.stats()


def _current_rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / (1024.0 * 1024.0)


def role_daemon(args: argparse.Namespace) -> None:
    import repro.serve  # noqa: F401  (imports are part of daemon boot)

    if args.trace:
        _install_daemon_tracer()
    stats = asyncio.run(_daemon_main(args))
    out: dict[str, Any] = {"peak_rss_mb": peak_rss_mb(),
                           "rss_mb": _current_rss_mb(), "stats": stats}
    if args.trace:
        import tracer

        out["layers"] = tracer.RECORDER.summary()
        tracer.RECORDER.write(args.spans_out)
    emit(out)


def role_check(args: argparse.Namespace) -> None:
    """In-process digests of the given FlowRequest dicts."""
    from repro import api

    with open(args.requests) as fh:
        requests = json.load(fh)
    digests = []
    for data in requests:
        report = api.run(api.FlowRequest.from_dict(data), jobs=1,
                         store=False)
        digests.append(cell_digest(report.power_uw, report.rule_histogram,
                                   report.feasible))
    emit({"digests": digests})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("role", choices=("probe", "flow", "daemon", "check",
                                         "designs"))
    parser.add_argument("--launched", type=float, default=None)
    parser.add_argument("--workload", default="")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans-out", default="")
    parser.add_argument("--store", default="")
    parser.add_argument("--requests", default="")
    parser.add_argument("--out-dir", default="")
    args = parser.parse_args()
    if args.launched is None:
        args.launched = time.monotonic()
    {"probe": role_probe, "flow": role_flow, "daemon": role_daemon,
     "check": role_check, "designs": role_designs}[args.role](args)


if __name__ == "__main__":
    main()
