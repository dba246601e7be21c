"""Repository benchmark: one workload per run, metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload compare_corpus --seed 1 \
        --seconds 30 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``compare_corpus`` -- ``api.compare`` over six corpus designs, store
  disabled, ``jobs=1``; one op is one design.
* ``uniform_large``  -- ``api.run`` on ckt1024 under all-ndr and no-ndr,
  store disabled; one op is one flow.
* ``serve_mixed``    -- a ``repro serve`` daemon (2 workers, fresh store)
  driven in closed loop over 2 connections by a seeded ``/v1/run`` mix
  of cache reads and new random-policy computes; one op is one request.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the
workload twice for half of ``--seconds`` each (untraced, then with
layer spans) and prints the per-layer metrics.  The flow workloads
report their timed metrics at reference speed (``refspeed.py``).
Every repro call happens in a fresh child process
(``perfbench/child.py``) with its own temporary store root inside
``.perfbench_work/``; traced span dumps land in ``.perfbench_out/``.
Human-readable lines go first; the last line of standard output is the
JSON result.  The exit code is non-zero when the run cannot measure.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Iterator, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import refspeed  # noqa: E402  (stdlib-only modules beside this one)
from child import cell_digest  # noqa: E402

ROOT = os.getcwd()
CHILD = os.path.join(HERE, "child.py")
WORKLOADS = ("compare_corpus", "uniform_large", "serve_mixed")
#: Wall-clock budget of one whole run, so it always ends in time.
RUN_BUDGET_S = 170.0
_DEADLINE = time.monotonic() + RUN_BUDGET_S


def remaining() -> float:
    """Seconds left of the run budget (at least one)."""
    return max(1.0, _DEADLINE - time.monotonic())

#: Set-up samples per run; the median is reported.
SETUP_SAMPLES = 5
#: serve_mixed: requests per block of one new compute plus repeats
#: (4 makes 75% of requests repeat an earlier one).
SERVE_BLOCK = 4
#: serve_mixed: distinct request keys re-run in-process as a sample check.
SERVE_SAMPLE = 3
#: serve_mixed: the design order new computes cycle through (seed-shuffled).
#: ckt128 misses take about twice as long as the others; listing it twice
#: puts the p95 inside its latencies rather than on the edge between
#: ckt128 and the rest, where a small shift in the mix moves it a lot.
SERVE_CYCLE = ("ckt64", "ckt128", "ckt128", "soc_h64", "imp_uart")

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s",
                    "latency_p50_ms": "ms", "latency_p95_ms": "ms",
                    "peak_rss_mb": "MB", "ok_ratio": "ratio"}


class BenchError(RuntimeError):
    """The run cannot produce a measurement."""


# -- child processes ---------------------------------------------------------


def child_env(work: str) -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # Never the caller's cache: a store root private to this run.
    env["REPRO_CACHE_DIR"] = os.path.join(work, "user-cache")
    for name in ("REPRO_CACHE_MAX_BYTES", "REPRO_VERIFY_FLOWS",
                 "REPRO_ENGINE_BACKEND"):
        env.pop(name, None)
    env["PYTHONWARNINGS"] = "ignore"
    return env


def run_child(work: str, role: str, *args: str) -> dict[str, Any]:
    """Run one child role to completion; its last stdout line is JSON."""
    cmd = [sys.executable, CHILD, role, "--launched",
           repr(time.monotonic()), *args]
    log = os.path.join(work, f"{role}.log")
    with open(log, "ab") as err:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=err,
                                  env=child_env(work), cwd=ROOT,
                                  timeout=remaining(), check=False)
        except subprocess.TimeoutExpired:
            raise BenchError(f"child {role} timed out")
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        with open(log, "rb") as fh:
            tail = fh.read()[-2000:].decode(errors="replace")
        raise BenchError(f"child {role} exited {proc.returncode}:\n{tail}")
    return json.loads(lines[-1])


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile (``numpy.percentile`` default)."""
    if len(values) == 1:
        return values[0]
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- flow workloads ----------------------------------------------------------


def check_repeats(ops: list[dict]) -> int:
    """Mark ops whose digest differs from an earlier run of the same key."""
    first: dict[str, str] = {}
    mismatches = 0
    for op in ops:
        if not op.get("ok"):
            continue
        seen = first.setdefault(op["key"], op["digest"])
        if seen != op["digest"]:
            op["ok"] = False
            op["error"] = f"digest {op['digest']} != earlier {seen}"
            mismatches += 1
    return mismatches


def spans_path(args: argparse.Namespace) -> str:
    """Where a traced run writes its spans (kept after the run)."""
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir,
                        f"{args.workload}-seed{args.seed}.spans.jsonl.gz")


def flow_run(work: str, args: argparse.Namespace, trace: bool,
             seconds: float) -> dict[str, Any]:
    spans_out = spans_path(args) if trace else ""
    result = run_child(work, "flow", "--workload", args.workload,
                       "--seed", str(args.seed),
                       "--seconds", str(seconds),
                       "--trace", "1" if trace else "0",
                       "--spans-out", spans_out)
    result["mismatches"] = check_repeats(result["ops"])
    return result


def key_medians(ops: list[dict]) -> dict[str, float]:
    """Each op key's median latency in seconds over the run's passes."""
    per_key: dict[str, list[float]] = {}
    for op in ops:
        per_key.setdefault(op["key"], []).append(op["latency_s"])
    return {key: statistics.median(v) for key, v in per_key.items()}


def flow_rate(ops: list[dict]) -> float:
    """Correct ops per second of a pass timed at each op's median latency.

    A median per op key keeps a slow or fast stretch that covers a
    minority of the passes out of the rate, where the plain count over
    elapsed time would average it in.
    """
    medians = key_medians(ops)
    ok_per_pass = len(medians) * _ratio(sum(1 for op in ops if op["ok"]),
                                        len(ops))
    return _ratio(ok_per_pass, sum(medians.values()))


def measured_line(rate: float, latencies_ms: list[float]) -> str:
    """The unscaled timed metrics, for the human-readable lines."""
    return (f"ops_per_s {rate:.6g}, "
            f"latency_p50_ms {quantile(latencies_ms, 0.50):.6g}, "
            f"latency_p95_ms {quantile(latencies_ms, 0.95):.6g}")


def flow_quality(ops: list[dict]) -> dict[str, float]:
    """compare_corpus quality over the designs that completed (first pass)."""
    done: dict[str, dict] = {}
    for op in ops:
        if op.get("ok") and "saving_pct" in op:
            done.setdefault(op["key"], op)
    if not done:
        return {"smart_saving_pct": 0.0, "smart_feasible_ratio": 0.0,
                "invariant_violations": 0.0}
    violations = [k for k, op in done.items()
                  if op["all_feasible"] and (not op["smart_feasible"]
                                             or op["smart_power"]
                                             > op["all_power"])]
    return {
        "smart_saving_pct": statistics.fmean(op["saving_pct"]
                                             for op in done.values()),
        "smart_feasible_ratio": _ratio(sum(op["smart_feasible"]
                                           for op in done.values()),
                                       len(done)),
        "invariant_violations": float(len(violations)),
    }


def flow_end_to_end(work: str, args: argparse.Namespace) -> dict[str, Any]:
    setups = [run_child(work, "probe")["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    result = flow_run(work, args, trace=False, seconds=args.seconds)
    setups.append(result["setup_s"])
    ops = result["ops"]
    ok = [op for op in ops if op["ok"]]
    # One latency per op key (its median over passes), so the quantiles
    # do not shift with the number of whole passes that fit in a run.
    measured = [1000.0 * v for v in key_medians(ok).values()]
    if not measured:
        raise BenchError("no op completed")
    speed = refspeed.scale(result["ref_s"])
    latencies = [v * speed for v in measured]
    return {
        "attempted": len(ops),
        "failed": len(ops) - len(ok),
        "mismatches": result["mismatches"],
        "metrics": {
            "setup_s": statistics.median(setups),
            "ops_per_s": flow_rate(ops) / speed,
            "latency_p50_ms": quantile(latencies, 0.50),
            "latency_p95_ms": quantile(latencies, 0.95),
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_ratio": len(ok) / len(ops),
        },
        "info": {"samples": len(latencies), "passes": result["passes"],
                 "reference_scale": speed,
                 "measured": measured_line(flow_rate(ops), measured),
                 "fail_ratio": f"{len(ops) - len(ok)}/{len(ops)}",
                 "errors": sorted({f"{op['key']}: {op['error'][:90]}"
                                   for op in ops if not op["ok"]}),
                 **(flow_quality(ops)
                    if args.workload == "compare_corpus" else {})},
    }


# -- serve_mixed -------------------------------------------------------------


def serve_requests(seed: int, designs: dict[str, str]) -> Iterator[dict]:
    """Seeded /v1/run mix: repeats of earlier requests plus new computes.

    Requests come in blocks of :data:`SERVE_BLOCK`: one new random-policy
    compute and ``SERVE_BLOCK - 1`` repeats of earlier requests, at
    seeded positions.  New computes cycle through :data:`SERVE_CYCLE`
    in a seeded order, so every seed runs the same mix of work.
    ``designs`` maps each design name to the ref the daemon receives.
    """
    rng = random.Random(seed)
    issued: list[dict] = []
    cycle: list[str] = []
    while True:
        block = [True] + [False] * (SERVE_BLOCK - 1)
        rng.shuffle(block)
        for new in block:
            if issued and not new:
                yield rng.choice(issued)
                continue
            if not cycle:
                cycle = [designs[name] for name in SERVE_CYCLE]
                rng.shuffle(cycle)
            request = {"design": cycle.pop(), "policy": "random",
                       "random_seed": 1000 * seed + len(issued) + 1}
            issued.append(request)
            yield request


class Daemon:
    """One ``child.py daemon`` process and its HTTP endpoint."""

    def __init__(self, work: str, tag: str, trace: bool,
                 spans_out: str = "") -> None:
        store = tempfile.mkdtemp(prefix=f"store-{tag}-", dir=work)
        self.log_path = os.path.join(work, f"daemon-{tag}.log")
        self.log = open(self.log_path, "ab")
        cmd = [sys.executable, CHILD, "daemon", "--launched",
               repr(time.monotonic()), "--store", store,
               "--trace", "1" if trace else "0", "--spans-out", spans_out]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=self.log, env=child_env(work),
                                     cwd=ROOT, start_new_session=True)
        try:
            ready = json.loads(self._readline())
            self.port = int(ready["port"])
            self.setup_s = float(ready["setup_s"])
        except (ValueError, KeyError):
            self.kill()
            raise BenchError("serve daemon sent no ready line")
        except BaseException:
            self.kill()
            raise

    def _readline(self) -> str:
        assert self.proc.stdout is not None
        holder: list[bytes] = []
        reader = threading.Thread(
            target=lambda: holder.append(self.proc.stdout.readline()),
            daemon=True)
        reader.start()
        reader.join(remaining())
        if not holder or not holder[0]:
            self.kill()
            with open(self.log_path, "rb") as fh:
                tail = fh.read()[-2000:].decode(errors="replace")
            raise BenchError(f"serve daemon did not answer:\n{tail}")
        return holder[0].decode()

    def request(self, method: str, path: str,
                body: Optional[dict] = None) -> tuple[int, dict]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=remaining())
        try:
            data = json.dumps(body).encode() if body is not None else None
            conn.request(method, path, body=data,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            payload = response.read()
            return response.status, json.loads(payload)
        finally:
            conn.close()

    def shutdown(self) -> dict[str, Any]:
        """Stop cleanly; returns the daemon's final report line."""
        try:
            self.request("POST", "/v1/shutdown")
            final = json.loads(self._readline())
            self.proc.wait(timeout=remaining())
        finally:
            self.kill()
        return final

    def kill(self) -> None:
        """Kill whatever is left of the daemon's process group."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.log.close()


def _worker_compute_s(trace: Optional[dict]) -> Optional[float]:
    if not trace:
        return None
    for record in trace.get("records", []):
        if record.get("name") == "serve.request":
            return float(record["dur_s"])
    return None


def drive(daemon: Daemon, seed: int, designs: dict[str, str], seconds: float,
          trace: bool) -> tuple[list[dict], float]:
    """Closed loop over 2 connections for ``seconds``; one record per op."""
    sequence = serve_requests(seed, designs)
    lock = threading.Lock()
    records: list[dict] = []
    path = "/v1/run?trace=1" if trace else "/v1/run"
    started = time.monotonic()
    deadline = started + seconds

    def client() -> None:
        while time.monotonic() < deadline:
            with lock:
                request = next(sequence)
                index = len(records)
                records.append({})
            t0 = time.perf_counter()
            record: dict[str, Any] = {"key": json.dumps(request,
                                                        sort_keys=True)}
            try:
                status, envelope = daemon.request("POST", path, request)
                record["latency_s"] = time.perf_counter() - t0
                result = envelope.get("result") or {}
                record.update(
                    ok=status == 200 and envelope.get("status") == "ok",
                    cached=bool(envelope.get("cached")),
                    coalesced=bool(envelope.get("coalesced")),
                    handle_s=float(envelope.get("elapsed_s", 0.0)),
                    compute_s=_worker_compute_s(envelope.get("trace")))
                if record["ok"]:
                    record["digest"] = cell_digest(
                        result["summary"]["power_uw"],
                        result["rule_histogram"], result["feasible"])
                else:
                    record["error"] = str(envelope.get("error"))
            except Exception as exc:  # noqa: BLE001 - counted, not fatal
                record.update(ok=False, latency_s=time.perf_counter() - t0,
                              error=f"{type(exc).__name__}: {exc}")
            records[index] = record

    # Daemon threads, so an interrupted run does not wait out --seconds.
    threads = [threading.Thread(target=client, daemon=True) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records, time.monotonic() - started


def sample_check(work: str, records: list[dict], seed: int) -> int:
    """Re-run a seeded sample of request keys in-process; count mismatches."""
    keys = sorted({r["key"] for r in records if r.get("ok")})
    sample = random.Random(seed).sample(keys, min(SERVE_SAMPLE, len(keys)))
    path = os.path.join(work, "sample.json")
    with open(path, "w") as fh:
        json.dump([json.loads(k) for k in sample], fh)
    digests = run_child(work, "check", "--requests", path)["digests"]
    expected = dict(zip(sample, digests))
    mismatches = 0
    for record in records:
        want = expected.get(record["key"])
        if want is not None and record.get("ok") and record["digest"] != want:
            record["ok"] = False
            record["error"] = f"digest {record['digest']} != in-process {want}"
            mismatches += 1
    return mismatches


def serve_session(work: str, args: argparse.Namespace,
                  designs: dict[str, str],
                  trace: bool, boots: int,
                  seconds: float) -> dict[str, Any]:
    """Boot ``boots`` daemons (set-up samples), drive the last one."""
    spans_out = spans_path(args) if trace else ""
    setups = []
    for i in range(boots - 1):
        daemon = Daemon(work, f"boot{i}", trace=False)
        setups.append(daemon.setup_s)
        daemon.shutdown()
    daemon = Daemon(work, "main", trace=trace, spans_out=spans_out)
    setups.append(daemon.setup_s)
    try:
        records, elapsed = drive(daemon, args.seed, designs, seconds, trace)
        _, stats = daemon.request("GET", "/v1/stats")
        _, metrics = daemon.request("GET", "/v1/metrics")
        final = daemon.shutdown()
    except BaseException:
        daemon.kill()
        raise
    mismatches = check_repeats(records)
    mismatches += sample_check(work, records, args.seed)
    return {"records": records, "elapsed_s": elapsed, "setups": setups,
            "stats": stats, "metrics": metrics.get("metrics", {}),
            "final": final, "mismatches": mismatches}


def serve_designs(work: str, seed: int) -> dict[str, str]:
    return run_child(work, "designs", "--seed", str(seed),
                     "--out-dir", work)["designs"]


def serve_end_to_end(work: str, args: argparse.Namespace) -> dict[str, Any]:
    designs = serve_designs(work, args.seed)
    session = serve_session(work, args, designs, trace=False,
                            boots=SETUP_SAMPLES, seconds=args.seconds)
    records = session["records"]
    ok = [r for r in records if r["ok"]]
    # As measured: see "Reference speed" in perfbench/README.md for why
    # serve_mixed is not scaled.
    latencies = [r["latency_s"] * 1000.0 for r in ok]
    if not latencies:
        raise BenchError("no request completed")
    return {
        "attempted": len(records),
        "failed": len(records) - len(ok),
        "mismatches": session["mismatches"],
        "metrics": {
            "setup_s": statistics.median(session["setups"]),
            "ops_per_s": len(ok) / session["elapsed_s"],
            "latency_p50_ms": quantile(latencies, 0.50),
            "latency_p95_ms": quantile(latencies, 0.95),
            "peak_rss_mb": session["final"]["peak_rss_mb"],
            "ok_ratio": len(ok) / len(records),
        },
        "info": {"samples": len(latencies),
                 "beyond_p95": sum(v > quantile(latencies, 0.95)
                                   for v in latencies),
                 "fail_ratio": f"{len(records) - len(ok)}/{len(records)}",
                 "cached": sum(r.get("cached", False) for r in ok),
                 "coalesced": sum(r.get("coalesced", False) for r in ok)},
    }


# -- per-layer (traced) ------------------------------------------------------

#: Layer span name -> reported stats.  Names follow ``<module>.<function>``.
LAYER_STATS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("route.neighbors_of", ("calls", "self_s")),
    ("route.register", ("calls", "self_s")),
    ("route.signals", ("self_s",)),
    ("route.clock", ("self_s",)),
    ("geom.steiner", ("calls", "self_s")),
    ("geom.avoid", ("calls", "failures")),
    ("cts.synthesize", ("self_s",)),
    ("cts.refine", ("calls", "self_s")),
    ("extract.full", ("calls", "self_s")),
    ("extract.rcnetwork", ("calls", "self_s")),
    ("extract.incremental", ("calls", "self_s")),
    ("designs.generate", ("calls", "self_s")),
    ("designs.load", ("calls", "self_s")),
    ("timing.arrival", ("self_s",)),
    ("timing.crosstalk", ("self_s",)),
    ("timing.montecarlo", ("self_s",)),
    ("reliability.em", ("self_s",)),
    ("power.analyze", ("self_s",)),
    ("core.analyze_all", ("calls",)),
    ("core.optimizer", ("calls", "self_s")),
    ("engine.build", ("calls", "self_s")),
    ("engine.apply_rule_changes", ("calls", "self_s")),
    ("engine.rebuild_stages", ("calls",)),
    ("engine.analyze", ("calls", "self_s")),
    ("engine.static_timing", ("calls", "self_s")),
    ("io.store.load", ("calls", "self_s")),
    ("io.store.save", ("calls", "self_s")),
)
#: The program's own obs counters: per-layer name -> registry name.
PROGRAM_COUNTERS = {"core.opt_iterations": "opt.iterations",
                    "engine.stage_rebuilds": "engine.stage_rebuilds"}
#: Every per-layer metric and its unit, in report order.
PER_LAYER_UNITS: dict[str, str] = {
    **{f"{name}.{stat}": "s" if stat == "self_s" else "count"
       for name, stats in LAYER_STATS for stat in stats},
    "runner.references": "count", "runner.cells": "count",
    "core.opt_iterations": "count", "engine.stage_rebuilds": "count",
    "io.store.hit_ratio": "ratio", "serve.cache_hit_ratio": "ratio",
    "serve.handle_ms_p50": "ms", "serve.coalesced": "count",
    "serve.computations": "count", "serve.queue_wait_ms_p50": "ms",
    "serve.worker_compute_ms_p50": "ms", "serve.http_ms_p50": "ms",
    "serve.daemon_rss_mb": "MB",
    "quality.fail_ratio": "ratio", "quality.smart_saving_pct": "%",
    "quality.smart_feasible_ratio": "ratio",
    "quality.invariant_violations": "count",
    "trace.overhead_pct": "%", "trace.untraced_ops_per_s": "1/s",
    "trace.traced_ops_per_s": "1/s", "trace.self_sum_error_pct": "%",
    "trace.spans": "count",
}


def layer_values(layers: dict[str, Any]) -> dict[str, float]:
    out: dict[str, float] = {}
    for name, stats in LAYER_STATS:
        for stat in stats:
            out[f"{name}.{stat}"] = float(layers[stat].get(name, 0))
    out["runner.references"] = float(layers["calls"].get("runner.references",
                                                         0))
    out["runner.cells"] = float(layers["calls"].get("runner.cells", 0))
    out["trace.spans"] = float(layers.get("spans", 0))
    loads = layers["calls"].get("io.store.load", 0)
    out["io.store.hit_ratio"] = _ratio(
        loads - layers["empty"].get("io.store.load", 0), loads)
    return out


def _ok_rate(ops: list[dict], elapsed: float) -> float:
    return sum(1 for op in ops if op.get("ok")) / elapsed


def overhead_pct(traced_rate: float, untraced_rate: float) -> float:
    """Throughput lost to tracing, as a share of the untraced rate."""
    return 100.0 * (1.0 - _ratio(traced_rate, untraced_rate))


def flow_per_layer(work: str, args: argparse.Namespace) -> dict[str, Any]:
    # Half of --seconds each, so a traced run is as long as an untraced one.
    plain = flow_run(work, args, trace=False, seconds=args.seconds / 2)
    traced = flow_run(work, args, trace=True, seconds=args.seconds / 2)
    # The traced run repeats every op of the untraced one: same digests.
    both = plain["ops"] + traced["ops"]
    mismatches = check_repeats(both)
    values = layer_values(traced["layers"])
    for name, source in PROGRAM_COUNTERS.items():
        values[name] = float(traced["counters"].get(source, 0))
    # Each half at reference speed, so a machine phase that covers one
    # half only does not show as tracing overhead.
    untraced_rate = flow_rate(plain["ops"]) / refspeed.scale(plain["ref_s"])
    traced_rate = flow_rate(traced["ops"]) / refspeed.scale(traced["ref_s"])
    balance = traced["layers"]["op_balance"]
    values.update({
        "trace.untraced_ops_per_s": untraced_rate,
        "trace.traced_ops_per_s": traced_rate,
        "trace.overhead_pct": overhead_pct(traced_rate, untraced_rate),
        "trace.self_sum_error_pct": max(
            (100.0 * abs(wall - own) / wall for wall, own in balance
             if wall > 0), default=0.0),
    })
    values.update({name: 0.0 for name in PER_LAYER_UNITS
                   if name.startswith("serve.")})
    ops = traced["ops"]
    quality = flow_quality(ops)
    values["quality.fail_ratio"] = _ratio(sum(not op["ok"] for op in ops),
                                          len(ops))
    for key, value in quality.items():
        values[f"quality.{key}"] = value
    return {"attempted": len(both),
            "failed": sum(1 for op in both if not op["ok"]),
            "mismatches": mismatches + plain["mismatches"]
            + traced["mismatches"], "metrics": values}


def _p50(values: list[float]) -> float:
    return quantile(values, 0.5) if values else 0.0


def serve_per_layer(work: str, args: argparse.Namespace) -> dict[str, Any]:
    designs = serve_designs(work, args.seed)
    # Half of --seconds each, so a traced run is as long as an untraced one.
    plain = serve_session(work, args, designs, trace=False, boots=1,
                          seconds=args.seconds / 2)
    traced = serve_session(work, args, designs, trace=True, boots=1,
                           seconds=args.seconds / 2)
    records = traced["records"]
    ok = [r for r in records if r["ok"]]
    layers = traced["final"]["layers"]
    values = layer_values(layers)
    metrics = traced["metrics"]
    for name, source in PROGRAM_COUNTERS.items():
        values[name] = float(metrics.get(source, {}).get("value", 0))
    stats = traced["stats"]
    counters = stats.get("counters", {})
    computed = [r for r in ok if r.get("compute_s") is not None]
    untraced_rate = _ok_rate(plain["records"], plain["elapsed_s"])
    traced_rate = _ok_rate(records, traced["elapsed_s"])
    values.update({
        "serve.cache_hit_ratio": _ratio(counters.get("response_cache_hits",
                                                     0),
                                        counters.get("requests.run", 0)),
        "serve.handle_ms_p50": _p50([r["handle_s"] * 1000.0 for r in ok]),
        "serve.coalesced": float(counters.get("coalesced_requests", 0)),
        "serve.computations": float(stats.get("pool", {})
                                    .get("submitted", 0)),
        "serve.queue_wait_ms_p50": _p50(
            [(r["handle_s"] - r["compute_s"]) * 1000.0 for r in computed]),
        "serve.worker_compute_ms_p50": _p50(
            [r["compute_s"] * 1000.0 for r in computed]),
        "serve.http_ms_p50": _p50(
            [(r["latency_s"] - r["handle_s"]) * 1000.0 for r in ok]),
        "serve.daemon_rss_mb": float(traced["final"]["rss_mb"]),
        "trace.untraced_ops_per_s": untraced_rate,
        "trace.traced_ops_per_s": traced_rate,
        "trace.overhead_pct": overhead_pct(traced_rate, untraced_rate),
        # Daemon spans have no per-request root on the event loop; the
        # per-op balance is checked on the flow workloads.
        "trace.self_sum_error_pct": 0.0,
        "quality.fail_ratio": _ratio(len(records) - len(ok), len(records)),
        "quality.smart_saving_pct": 0.0,
        "quality.smart_feasible_ratio": 0.0,
        "quality.invariant_violations": 0.0,
    })
    all_records = plain["records"] + records
    return {"attempted": len(all_records),
            "failed": sum(1 for r in all_records if not r["ok"]),
            "mismatches": plain["mismatches"] + traced["mismatches"],
            "metrics": values}


# -- main --------------------------------------------------------------------


def check_checkout() -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "api.py")):
        raise BenchError("run from the repository root: src/repro/api.py "
                         "not found")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an error, so every child is killed and waited
    # for and the work directory is removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        check_checkout()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        if args.workload == "serve_mixed":
            fn = serve_per_layer if args.trace else serve_end_to_end
        else:
            fn = flow_per_layer if args.trace else flow_end_to_end
        result = fn(work, args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    print(f"workload {args.workload} seed {args.seed} "
          f"trace {args.trace}: attempted {result['attempted']} "
          f"failed {result['failed']} "
          f"(output mismatches {result['mismatches']})")
    for name, entry in metrics.items():
        print(f"  {name:36s} {entry['value']:.6g} {entry['unit']}")
    for key, value in result.get("info", {}).items():
        print(f"  {key}: {value}")
    print(json.dumps({"correct": result["mismatches"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
