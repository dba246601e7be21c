"""In-memory span recorder wrapped around the public function of each layer.

The benchmark installs these wrappers from its own files; nothing
inside ``src/repro`` changes.  Every wrapped call records one span
(id, parent, name, start, end) on the monotonic clock and folds its
duration into per-name totals, so self time (duration minus the part
covered by child spans) is known without a second pass.  Spans stay in
memory until :meth:`Recorder.write` dumps them at the end of a run.

The recorder is single-threaded by design: flows run serially in the
benchmark process, and the daemon only calls synchronous store methods
on its event-loop thread, so one explicit stack is exact.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from typing import Any, Callable, Iterable

_CLOCK = time.perf_counter

#: (span name, module, attribute path) of every wrapped layer entry point.
#: A dotted attribute path names a method on a class in that module.
LAYERS: tuple[tuple[str, str, str], ...] = (
    ("route.neighbors_of", "repro.route.tracks", "TrackManager.neighbors_of"),
    ("route.register", "repro.route.tracks", "TrackManager.register"),
    ("route.signals", "repro.route.router", "Router.route_signals"),
    ("route.clock", "repro.route.router", "Router.route_clock_tree"),
    ("geom.steiner", "repro.geom.steiner", "build_steiner_tree"),
    ("geom.avoid", "repro.geom.avoid", "route_avoiding"),
    ("cts.synthesize", "repro.cts.synthesize", "synthesize_clock_tree"),
    ("cts.refine", "repro.cts.refine", "refine_skew"),
    ("extract.full", "repro.extract.extractor", "extract"),
    ("extract.incremental", "repro.extract.extractor", "incremental_re_extract"),
    ("extract.rcnetwork", "repro.extract.rcnetwork", "build_rc_network"),
    ("designs.generate", "repro.designs.generate", "generate_design"),
    ("designs.load", "repro.io.design_json", "load_design"),
    ("timing.arrival", "repro.timing.arrival", "analyze_clock_timing"),
    ("timing.crosstalk", "repro.timing.crosstalk", "analyze_crosstalk"),
    ("timing.montecarlo", "repro.timing.montecarlo", "run_monte_carlo"),
    ("reliability.em", "repro.reliability.em", "analyze_em"),
    ("power.analyze", "repro.power.clockpower", "analyze_power"),
    ("core.analyze_all", "repro.core.evaluation", "analyze_all"),
    ("core.optimizer", "repro.core.optimizer", "SmartNdrOptimizer.run"),
    ("engine.build", "repro.engine.incremental", "AnalysisEngine.__init__"),
    ("engine.apply_rule_changes", "repro.engine.incremental",
     "AnalysisEngine.apply_rule_changes"),
    ("engine.rebuild_stages", "repro.engine.incremental",
     "AnalysisEngine.rebuild_stages"),
    ("engine.analyze", "repro.engine.incremental", "AnalysisEngine.analyze"),
    ("engine.static_timing", "repro.engine.incremental",
     "AnalysisEngine.static_timing"),
    ("runner.references", "repro.runner.runner", "FlowRunner.reference"),
    ("runner.cells", "repro.runner.runner", "_execute_job"),
    ("io.store.load", "repro.io.artifacts", "ArtifactStore.load"),
    ("io.store.save", "repro.io.artifacts", "ArtifactStore.save"),
)

#: Name of the root span the workloads open around each timed op.
OP_SPAN = "op"


class Recorder:
    """Spans in memory plus running per-name calls/self/failure totals."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.failures: dict[str, int] = {}
        #: Calls that returned ``None`` (a store miss for ``io.store.load``).
        self.empty: dict[str, int] = {}
        # Open frames: [span id, child seconds].  Id 0 is "no parent".
        self._stack: list[list[Any]] = []
        self._next_id = 1
        #: Per root op: (wall seconds, sum of self seconds inside it).
        self.op_balance: list[tuple[float, float]] = []
        self._op_self = 0.0

    def call(self, name: str, fn: Callable[..., Any], *args: Any,
             **kwargs: Any) -> Any:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = _CLOCK()
        try:
            result = fn(*args, **kwargs)
            if result is None:
                self.empty[name] = self.empty.get(name, 0) + 1
            return result
        except BaseException:
            self.failures[name] = self.failures.get(name, 0) + 1
            raise
        finally:
            end = _CLOCK()
            self._stack.pop()
            duration = end - start
            own = duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + own
            self.spans.append((span_id, parent, name, start, end))
            self._op_self += own
            if name == OP_SPAN and not self._stack:
                self.op_balance.append((duration, self._op_self))
                self._op_self = 0.0

    def merge(self, other: dict[str, Any]) -> None:
        """Fold a :meth:`export` payload from another process in."""
        offset = self._next_id
        for span_id, parent, name, start, end in other["spans"]:
            self.spans.append((span_id + offset,
                               parent + offset if parent else 0,
                               name, start, end))
            self._next_id = max(self._next_id, span_id + offset + 1)
        for table, src in ((self.calls, other["calls"]),
                           (self.self_s, other["self_s"]),
                           (self.failures, other["failures"]),
                           (self.empty, other["empty"])):
            for key, value in src.items():
                table[key] = table.get(key, 0) + value

    def export(self, reset: bool = False) -> dict[str, Any]:
        out = {"spans": list(self.spans), "calls": dict(self.calls),
               "self_s": dict(self.self_s),
               "failures": dict(self.failures), "empty": dict(self.empty)}
        if reset:
            for table in (self.spans, self.calls, self.self_s,
                          self.failures, self.empty):
                table.clear()
        return out

    def summary(self) -> dict[str, Any]:
        """Per-name totals plus the span count, without the spans."""
        return {"calls": self.calls, "self_s": self.self_s,
                "failures": self.failures, "empty": self.empty,
                "op_balance": self.op_balance, "spans": len(self.spans)}

    def write(self, path: str) -> None:
        """Dump every span as gzipped JSONL: [id, parent, name, start, end]."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


RECORDER = Recorder()


def _wrap(name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        return RECORDER.call(name, fn, *args, **kwargs)
    traced.__wrapped_layer__ = name  # type: ignore[attr-defined]
    return traced


def _rebind(original: Any, replacement: Any,
            modules: Iterable[Any]) -> None:
    """Point every ``from x import f`` alias of ``original`` at the wrapper."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(layers: tuple[tuple[str, str, str], ...] = LAYERS) -> None:
    """Wrap each layer entry point in place (idempotent per process)."""
    for _name, module_name, _attr in layers:
        importlib.import_module(module_name)
    import repro.api  # noqa: F401  (load every alias site first)

    modules = [m for n, m in list(sys.modules.items())
               if (n == "repro" or n.startswith("repro.")) and m is not None]
    for name, module_name, attr in layers:
        owner: Any = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        if getattr(original, "__wrapped_layer__", None):
            continue
        wrapper = _wrap(name, original)
        setattr(owner, leaf, wrapper)
        if not path:
            _rebind(original, wrapper, modules)


def op(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """Run one timed op under the root span."""
    return RECORDER.call(OP_SPAN, fn, *args, **kwargs)
