"""Span recorder, probe table and self-time arithmetic for the traced pass.

The benchmark measures the layers from outside: every probe wraps a call
*into* a layer (a public method patched on its class, or a module
function patched in every module that imported it by name).  Nothing is
installed during the untraced pass, and :meth:`Recorder.uninstall`
restores every patched attribute, so traced and untraced rounds can
alternate in one process.

A span is a row ``(name, start_s, end_s, parent, request, weight, size)``:

- ``parent`` is the row of the enclosing span (same thread), or -- for the
  first span a session thread opens -- the span the driver thread is
  blocked in, so ``ServingRuntime.run`` adopts the work its session
  threads do; -1 for a root;
- ``request`` is the number of ``backend.serve`` returns seen when the
  span opened, i.e. the index of the serve-gap it falls into;
- ``weight`` is how many like spans this one stands for: 1, or the
  sampling period (below);
- ``size`` is ``len(result)`` for probes marked ``sized`` (candidate
  counts), the generation for a collector pause, else 0.

**Sampling.**  The fabric loop spends ~16 us per request across a dozen
probed calls; a span on every call would double its wall time, and even
a wrapper that only checks a flag costs ~0.35 us a call.  A *gate* probe
-- ``TenantRegistry.admit``, the first call of each loop iteration --
therefore counts iterations and keeps every other probe *unpatched*
except during blocks of :data:`BLOCK` consecutive iterations, one block
in ``period``.  Spans of a sampled block carry ``weight = period``, and
the gate files a :data:`WINDOW_SPAN` row from the block's first gate
entry to the first one after it: the whole block, loop body included.
:func:`layer_totals` does not trust ``weight`` alone -- a block runs
freshly patched code -- but scales sampled time so that the windows add up
to the time the enclosing unsampled span (``ServingFabric.run``) really
took.  Sampling ends when that span closes.

**Collector pauses** are rows too (:data:`GC_SPAN`, from ``gc.callbacks``)
-- every one of them, at weight 1, even between sampled iterations: a
full collection that lands in a sampled 15 us span must not be multiplied
by the period.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import json
import sys
import threading
from dataclasses import dataclass
from time import perf_counter

__all__ = ["BLOCK", "GC_SPAN", "PROBES", "WINDOW_SPAN", "Probe", "Recorder", "layer_totals", "probe_cost_s", "resolve"]

GC_SPAN = "python.gc"
WINDOW_SPAN = "sample.window"
BLOCK = 256  # consecutive loop iterations traced per sampled block


@dataclass(frozen=True)
class Probe:
    span: str  # layer.name the span is filed under
    target: str  # dotted path, resolved at start-up
    gate: bool = False  # first call of a loop iteration: drives sampling
    sized: bool = False  # record len(result)


#: layer span -> the calls into that layer.  Coarse public entry points
#: only: per-join helpers are left alone (a 15-probe prototype already
#: covered 99 % of the wall).
PROBES: tuple[Probe, ...] = (
    Probe("optimizer.plan", "repro.optimizer.planner.Optimizer.plan"),
    Probe("optimizer.cardinalities", "repro.optimizer.cost.PlanCoster.subquery_cardinalities"),
    Probe("optimizer.estimate", "repro.optimizer.traditional.TraditionalCardinalityEstimator.estimate"),
    Probe("optimizer.plancache", "repro.optimizer.plancache.PlanCache.get_or_plan"),
    Probe("costmodel.featurize", "repro.costmodel.features.plan_to_tree_arrays"),
    Probe("ml.predict", "repro.ml.treeconv.TreeConvNet.predict"),
    Probe("ml.fit", "repro.ml.treeconv.TreeConvNet.fit"),
    Probe("e2e.choose_plan", "repro.core.framework.LearnedOptimizer.choose_plan"),
    Probe("e2e.choose_plan", "repro.e2e.exploration.HintSetExploration.candidates", sized=True),
    Probe("e2e.feedback", "repro.core.framework.LearnedOptimizer.record_feedback"),
    Probe("e2e.retrain", "repro.e2e.risk_models.TreeConvLatencyModel.retrain"),
    Probe("engine.execute", "repro.engine.simulator.ExecutionSimulator.execute"),
    Probe("engine.cardinality", "repro.engine.executor.CardinalityExecutor.cardinality"),
    Probe("pilotscope.execute", "repro.pilotscope.console.PilotScopeConsole.execute"),
    Probe("serve.deployment", "repro.serve.deployment.DeploymentManager.serve"),
    Probe("serve.telemetry", "repro.serve.telemetry.TelemetryBus.incr"),
    Probe("serve.telemetry", "repro.serve.telemetry.TelemetryBus.observe"),
    Probe("serve.telemetry", "repro.serve.telemetry.TelemetryBus.trace"),
    Probe("serve.telemetry", "repro.serve.telemetry.TelemetryBus.event"),
    Probe("serve.runtime", "repro.serve.runtime.ServingRuntime.run"),
    Probe("serve.export", "repro.serve.telemetry.TelemetryBus.to_json"),
    Probe("fabric.loop", "repro.serve.fabric.fabric.ServingFabric.run"),
    Probe("fabric.admit", "repro.serve.fabric.tenants.TenantRegistry.admit", gate=True),
    Probe("fabric.route", "repro.serve.fabric.router.ShardRouter.route"),
    Probe("fabric.submit", "repro.serve.fabric.shard.ShardRuntime.submit"),
    Probe("fabric.merge", "repro.serve.fabric.aggregate.TelemetryAggregator.merged"),
    Probe("cardest.estimate", "repro.cardest.querydriven.GBDTQueryEstimator.estimate"),
    Probe("cardest.estimate", "repro.cardest.querydriven.GBDTQueryEstimator.estimate_batch"),
    Probe("cardest.fit", "repro.cardest.querydriven.GBDTQueryEstimator.fit"),
    Probe("cardest.adapt", "repro.cardest.drift.Warper.adapt"),
    Probe("cardest.drift_check", "repro.cardest.drift.DDUpDetector.check"),
    Probe("lifecycle.experience", "repro.lifecycle.experience.ExperienceStore.add_decision"),
    Probe("lifecycle.experience", "repro.lifecycle.experience.ExperienceStore.add_drift_queries"),
    Probe("lifecycle.step", "repro.lifecycle.scheduler.RetrainingScheduler.step"),
    Probe("lifecycle.gate", "repro.lifecycle.gates.EvalGate.evaluate"),
    Probe("lifecycle.registry", "repro.lifecycle.registry.ModelRegistry.register"),
    Probe("lifecycle.registry", "repro.lifecycle.registry.ModelRegistry.record_stage"),
    Probe("lifecycle.registry", "repro.lifecycle.registry.ModelRegistry.record_gate"),
    Probe("lifecycle.registry", "repro.lifecycle.registry.ModelRegistry.set_champion"),
    Probe("storage.build", "repro.storage.datasets.make_stats_lite"),
)


def resolve(target: str):
    """``(owner, attribute, function)`` for a dotted target, or ``None``
    when a refactor moved or removed it."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for name in parts[cut:-1]:
                owner = getattr(owner, name)
            fn = getattr(owner, parts[-1])
        except AttributeError:
            return None
        return (owner, parts[-1], fn) if inspect.isfunction(fn) else None
    return None


class _ThreadStack(threading.local):
    def __init__(self) -> None:
        self.stack: list = []


_ABSENT = object()


class Recorder:
    """In-memory span store plus the wrappers that feed it.

    Spans live in parallel columns of scalars, not one object per span:
    appending to a list allocates nothing the garbage collector tracks, so
    recording neither triggers collections nor can one fire between the
    appends of a row.  Rows are only ever appended from the single-writer
    core -- one thread at a time -- so a row's index is stable.
    """

    COLUMNS = ("name", "start_s", "end_s", "parent", "request", "weight", "size")

    def __init__(self, period: int = 1) -> None:
        self.columns: tuple[list, ...] = tuple([] for _ in self.COLUMNS)
        self.period = period
        self.gaps: list = []  # the serve-gap list of the round being measured
        self.missing: list[str] = []
        self._on = True
        self._weight = 1
        self._ticks = 0
        self._window = -1  # row of the sampled block still open
        self._gc_row = -1
        self._local = _ThreadStack()
        self._main = self._local.stack  # the driver thread's stack
        self._gates: list[tuple] = []  # (holder, attribute, wrapper, original)
        self._probes: list[tuple] = []  # likewise, for every other probe
        self._probes_in = False

    def rows(self) -> list[tuple]:
        return list(zip(*self.columns))

    def _open(self, name: str, weight: int, size: int = 0) -> int:
        """Append a row starting now; its parent is the innermost open span."""
        names, starts, ends, parents, requests, weights, sizes = self.columns
        stack, main = self._local.stack, self._main
        if stack:
            parent = stack[-1]
        else:
            parent = main[-1] if main and stack is not main else -1
        row = len(names)
        names.append(name)
        ends.append(0.0)
        parents.append(parent)
        requests.append(len(self.gaps))
        weights.append(weight)
        sizes.append(size)
        starts.append(perf_counter())
        return row

    # -- wrapping -------------------------------------------------------------------

    def wrap(self, fn, span_name: str, *, gate: bool = False, sized: bool = False):
        rec, local = self, self._local
        ends, sizes = self.columns[2], self.columns[6]

        def traced(*args, **kwargs):
            if gate:
                rec._tick()
            if not rec._on:
                return fn(*args, **kwargs)
            weight = rec._weight
            row = rec._open(span_name, weight)
            stack = local.stack
            stack.append(row)
            try:
                result = fn(*args, **kwargs)
                if sized:
                    sizes[row] = len(result)
                return result
            finally:
                ends[row] = perf_counter()
                stack.pop()
                if weight == 1 and rec._weight != 1:
                    # the unsampled span that encloses the sampled loop closed
                    rec._close_window(ends[row])
                    rec._swap_probes(True)
                    rec._weight, rec._on, rec._ticks = 1, True, 0

        return traced

    def _tick(self) -> None:
        """Gate entry: one loop iteration ends, the next begins."""
        if self.period == 1:
            return
        position = self._ticks % (BLOCK * self.period)
        self._ticks += 1
        if position == 0:
            self._swap_probes(True)
            self._weight, self._on = self.period, True
            self._window = self._open(WINDOW_SPAN, self.period)
        elif position == BLOCK:
            self._close_window(perf_counter())
            self._swap_probes(False)
            self._on = False

    def _close_window(self, now: float) -> None:
        if self._window >= 0:
            self.columns[2][self._window] = now
            self._window = -1

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_row = self._open(GC_SPAN, 1, info["generation"])
        else:
            self.columns[2][self._gc_row] = perf_counter()

    def install(self, probes=None) -> None:
        """Patch every resolvable probe target; note the rest as missing."""
        gc.callbacks.append(self._on_gc)
        for probe in PROBES if probes is None else probes:
            found = resolve(probe.target)
            if found is None:
                self.missing.append(probe.target)
                continue
            owner, attr, fn = found
            wrapper = self.wrap(fn, probe.span, gate=probe.gate, sized=probe.sized)
            if inspect.ismodule(owner):
                # a function: rebind it wherever it was imported by name
                holders = [
                    m
                    for m in list(sys.modules.values())
                    if m is not None and getattr(m, "__dict__", {}).get(attr) is fn
                ]
            else:
                holders = [owner]
            (self._gates if probe.gate else self._probes).extend(
                (holder, attr, wrapper, vars(holder).get(attr, _ABSENT)) for holder in holders
            )
        self._patch(self._gates, True)
        self._swap_probes(True)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        self._swap_probes(False)
        self._patch(self._gates, False)
        self._gates.clear()
        self._probes.clear()

    def _swap_probes(self, wrappers_in: bool) -> None:
        """Patch the non-gate probes in or out (the gate does this per block)."""
        if self._probes_in != wrappers_in:
            self._probes_in = wrappers_in
            self._patch(self._probes, wrappers_in)

    @staticmethod
    def _patch(probes: list[tuple], wrappers_in: bool) -> None:
        for holder, attr, wrapper, original in probes:
            if wrappers_in:
                setattr(holder, attr, wrapper)
            elif original is _ABSENT:
                delattr(holder, attr)
            else:
                setattr(holder, attr, original)

    def dump(self, path, **header) -> None:
        """Write the spans as JSON rows."""
        with open(path, "w") as fh:
            json.dump({**header, "columns": self.COLUMNS, "spans": self.rows()}, fh)


def probe_cost_s(calls: int = 20_000) -> float:
    """Seconds one recorded span adds around the call it wraps, measured on
    a no-op with a throw-away recorder."""

    def noop():
        return None

    wrapped = Recorder().wrap(noop, "calibrate")
    start = perf_counter()
    for _ in range(calls):
        noop()
    plain = perf_counter() - start
    start = perf_counter()
    for _ in range(calls):
        wrapped()
    return max(perf_counter() - start - plain, 0.0) / calls


def layer_totals(
    rows, since: float = 0.0, until: float = float("inf"), probe_cost_s: float = 0.0
) -> dict[str, dict]:
    """Per span name: ``calls``, inclusive and self seconds, and the longest
    single span in ms -- over the spans that *start* in ``[since, until)``.

    A span's self time is its duration minus the part its child spans
    cover, so each span adds its duration to its own layer and takes the
    same amount off its parent's.  Three corrections make that hold for
    sampled rows (``weight > 1``), each a no-op on an unsampled tree:

    - every recorded span costs its ancestors ``probe_cost_s`` of wrapper
      time the untraced program does not pay; durations are taken net of
      it, so scaling a sampled request does not scale the observer too;
    - a collector pause is lifted out of the sampled spans and the sampled
      window it interrupts and charged once, to the nearest unsampled
      ancestor;
    - sampled time counts ``weight * scale``, where ``scale`` makes the
      sampled windows under an unsampled span add up to that span's own
      (net) duration.  The span's self time is then exactly the windows'
      time not covered by sampled child spans: the loop body.
    """
    n = len(rows)
    descendants = [0] * n
    for i in range(n - 1, -1, -1):  # children are recorded after their parents
        parent = rows[i][3]
        if parent >= 0:
            descendants[parent] += descendants[i] + 1
    net = [row[2] - row[1] - probe_cost_s * descendants[i] for i, row in enumerate(rows)]
    parent_of = [row[3] for row in rows]
    window = -1  # the sampled window the rows being walked fall into
    for i, row in enumerate(rows):
        if row[0] == WINDOW_SPAN:
            window = i
        elif window >= 0 and row[1] < rows[window][2] and row[0] != GC_SPAN:
            net[window] -= probe_cost_s  # a window is nobody's parent
        elif row[0] == GC_SPAN:
            if window >= 0 and row[1] < rows[window][2]:
                net[window] -= net[i]
            while parent_of[i] >= 0 and rows[parent_of[i]][5] != 1:
                net[parent_of[i]] -= net[i]
                parent_of[i] = parent_of[parent_of[i]]
    windows_s: dict[int, float] = {}  # unsampled row -> weighted seconds of its windows
    direct_s: dict[int, float] = {}  # row -> seconds of its unsampled children
    for i, row in enumerate(rows):
        if row[0] == WINDOW_SPAN:
            windows_s[row[3]] = windows_s.get(row[3], 0.0) + row[5] * net[i]
        elif row[5] == 1 and parent_of[i] >= 0:
            direct_s[parent_of[i]] = direct_s.get(parent_of[i], 0.0) + net[i]
    scale = [1.0] * n
    for i, row in enumerate(rows):
        parent = parent_of[i]
        if row[5] != 1 and parent >= 0:
            if rows[parent][5] != 1:
                scale[i] = scale[parent]
            elif windows_s.get(parent):
                scale[i] = (net[parent] - direct_s.get(parent, 0.0)) / windows_s[parent]
    totals: dict[str, dict] = {}

    def layer(name: str) -> dict:
        return totals.setdefault(
            name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "max_ms": 0.0}
        )

    for i, (name, start, _end, _parent, _request, weight, _size) in enumerate(rows):
        if name == WINDOW_SPAN or not since <= start < until:
            continue
        seconds = weight * scale[i] * net[i]
        own = layer(name)
        own["calls"] += weight
        own["incl_s"] += seconds
        own["self_s"] += seconds
        own["max_ms"] = max(own["max_ms"], net[i] * 1e3)
        parent = parent_of[i]
        if parent >= 0 and since <= rows[parent][1] < until:
            layer(rows[parent][0])["self_s"] -= seconds
    return totals
