"""Telemetry bus for the serving runtime.

Counters, latency histograms (p50/p95/p99) and per-request traces,
collected while requests are in flight and exported as one deterministic
``snapshot()`` dict.  Determinism is load-bearing: the serving smoke test
asserts that two same-seed runs of an 8-session schedule produce
byte-identical snapshots, so nothing wall-clock (timestamps, rates) may
enter the bus -- the runtime reports those separately -- and the snapshot
orders everything canonically (counters by name, traces by
``(session_id, seq)``).

The bus is single-writer: one loop records every request in arrival order
(the order that makes the snapshot deterministic), so nothing here locks.

A trace is the outcome object the runtime returned for the request
(:class:`repro.serve.runtime.Served` or ``Rejected``), kept as is: the
bus only needs its ``request.session_id`` / ``request.seq`` to order it
and its ``trace_row()`` to export it, so this module imports nothing from
the runtime.

External stat sources (the optimizer's :class:`~repro.optimizer.cardcache.
CardinalityCache`, guard intervention counters) attach as gauges: zero-arg
callables sampled at snapshot time, which is how cache hit/miss/eviction
counters reach serving reports without the bus holding references into the
planner.
"""

from __future__ import annotations

import json
from typing import Callable

from repro.core.errors import ConfigError

__all__ = ["Histogram", "TelemetryBus"]


class Histogram:
    """Percentile histogram over recorded values: exact below
    ``capacity``, approximate past it.

    Values are kept (bounded by ``capacity``) and percentiles computed from
    the sorted sample at summary time -- exact while at most ``capacity``
    values have been recorded, and deterministic regardless of recording
    order.  Past ``capacity`` the sample is halved by keeping every other
    value (again deterministic: depends only on the multiset of values
    recorded so far, not on wall clock), so percentiles become those of a
    thinned sample with no stated error bound, while ``count`` / ``total``
    / ``max`` keep describing the full stream.  :meth:`merged` pools
    samples of different halving depths at equal weight, which biases the
    merged percentiles toward the less-halved inputs.
    """

    def __init__(self, capacity: int = 65_536) -> None:
        if capacity < 2:
            raise ConfigError("histogram capacity must be >= 2")
        self.capacity = capacity
        self._values: list[float] = []
        self.count = 0
        self.total = 0.0
        self._max = float("-inf")

    def record(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value > self._max:
            self._max = value
        self._values.append(value)
        if len(self._values) > self.capacity:
            self._values.sort()
            self._values = self._values[::2]

    @classmethod
    def merged(cls, histograms: "list[Histogram]") -> "Histogram":
        """Combine histograms recorded independently (e.g. one per shard),
        at the largest of their capacities.

        The merge is a pure function of the *multiset* of inputs: retained
        samples are pooled, sorted, then decimated once against the target
        capacity, and the stream totals (``count``/``total``/``max``) add.
        Because the pooled sample is sorted before any decimation, merging
        the same histograms in any order produces byte-identical summaries
        -- the property the fabric aggregator's determinism gate relies on.
        """
        capacity = max((h.capacity for h in histograms), default=65_536)
        out = cls(capacity)
        values: list[float] = []
        for h in histograms:
            values.extend(h._values)
            out.count += h.count
            out.total += h.total
            if h._max > out._max:
                out._max = h._max
        values.sort()
        while len(values) > capacity:
            values = values[::2]
        out._values = values
        return out

    def summary(self) -> dict[str, float]:
        ordered = sorted(self._values)
        return {
            "count": self.count,
            "mean": self.total / self.count if self.count else 0.0,
            "p50": _nearest_rank(ordered, 50),
            "p95": _nearest_rank(ordered, 95),
            "p99": _nearest_rank(ordered, 99),
            "max": self._max if self.count else 0.0,
        }


def _nearest_rank(ordered: list[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of a sorted sample (0 when empty)."""
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1))))
    return ordered[rank]


def _trace_order(outcome) -> tuple[int, int]:
    """The deterministic identity traces are exported in."""
    request = outcome.request
    return (request.session_id, request.seq)


class TelemetryBus:
    """Single-writer counters + histograms + traces + deployment events.

    A retained trace keeps its outcome object, and through it the
    ``Request`` and ``Query``, alive until the bus goes -- not a flat row
    of strings -- so trace memory is ``trace_capacity`` outcomes, whatever
    a query weighs; traces past the capacity are counted and dropped.
    """

    def __init__(self, trace_capacity: int = 100_000) -> None:
        if trace_capacity < 1:
            raise ConfigError("trace capacity must be >= 1")
        self.trace_capacity = trace_capacity
        self._counters: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}
        self._traces: list = []  # Served | Rejected outcomes
        self._traces_dropped = 0
        self._events: list[dict] = []
        self._gauges: dict[str, Callable[[], dict]] = {}

    # -- recording ---------------------------------------------------------------

    def incr(self, name: str, by: float = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + by

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).record(value)

    def histogram(self, name: str) -> Histogram:
        """The histogram ``name`` records into, created on first use --
        a caller that records per request binds it once and calls its
        ``record``, which is what :meth:`observe` does by name."""
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram()
        return hist

    def trace(self, outcome) -> None:
        """Keep one request's outcome (see the module docstring)."""
        if len(self._traces) >= self.trace_capacity:
            self._traces_dropped += 1
        else:
            self._traces.append(outcome)

    def event(self, kind: str, **fields) -> None:
        """Record a deployment-lifecycle event (promotion, rollback, ...)."""
        self._events.append({"kind": kind, **fields})

    def attach_gauge(self, name: str, stats_fn: Callable[[], dict]) -> None:
        """Register an external stats source sampled at snapshot time."""
        self._gauges[name] = stats_fn

    # -- merging -----------------------------------------------------------------

    @classmethod
    def merged(cls, buses: "dict[str, TelemetryBus]") -> "TelemetryBus":
        """Compose per-source buses into one fabric-level bus.

        ``buses`` maps a source name (e.g. ``"shard03"``) to its bus.  The
        merge composes the *exports* without re-deriving anything from
        traces: counters add by name, histograms merge as multiset unions
        (:meth:`Histogram.merged`), events are re-emitted with a
        ``source`` field in canonical (source, occurrence) order, gauges
        re-attach under ``<source>.<name>``, and traces concatenate in
        canonical source order (the snapshot's stable sort then yields one
        deterministic ordering).  Sources are processed in sorted-name
        order, so merging the same buses in any insertion order produces a
        byte-identical export -- the commutativity the fabric determinism
        gate asserts.  The merged bus keeps the largest of its sources'
        trace capacities.

        The merged bus is a snapshot-style composition: it does not stay
        live-linked to its sources (except through re-attached gauges,
        which are sampled at snapshot time as usual).
        """
        items = sorted(buses.items())
        out = cls()
        if items:
            out.trace_capacity = max(b.trace_capacity for _, b in items)
        for name, bus in items:
            for cname, value in bus._counters.items():
                out._counters[cname] = out._counters.get(cname, 0) + value
            for ev in bus._events:
                out._events.append({**ev, "source": name})
            for trace in sorted(bus._traces, key=_trace_order):
                if len(out._traces) >= out.trace_capacity:
                    out._traces_dropped += 1
                else:
                    out._traces.append(trace)
            out._traces_dropped += bus._traces_dropped
            for gname, fn in bus._gauges.items():
                out._gauges[f"{name}.{gname}"] = fn
        hist_names = sorted({n for _, b in items for n in b._histograms})
        for hname in hist_names:
            out._histograms[hname] = Histogram.merged(
                [b._histograms[hname] for _, b in items if hname in b._histograms]
            )
        return out

    # -- export ------------------------------------------------------------------

    def events(self, kind: str) -> list[dict]:
        return [e for e in self._events if e["kind"] == kind]

    def histogram_summary(self, name: str) -> dict[str, float]:
        """One histogram's summary (the all-zero summary when nothing was
        observed under ``name``)."""
        return (self._histograms.get(name) or Histogram()).summary()

    def snapshot(self) -> dict:
        """Deterministic state dump: counters, histogram summaries, gauges,
        lifecycle events in occurrence order and traces sorted by identity."""
        return self._snapshot(include_traces=True)

    def _snapshot(self, include_traces: bool) -> dict:
        """:meth:`snapshot`, with the trace rows rendered only when they
        are exported."""
        snap = {
            "counters": dict(sorted(self._counters.items())),
            "histograms": {
                name: self._histograms[name].summary()
                for name in sorted(self._histograms)
            },
            "gauges": {
                name: dict(self._gauges[name]()) for name in sorted(self._gauges)
            },
            "events": [dict(e) for e in self._events],
        }
        if include_traces:
            traces = sorted(self._traces, key=_trace_order)
            snap["traces"] = [t.trace_row() for t in traces]
        snap["traces_dropped"] = self._traces_dropped
        return snap

    def to_json(self, *, include_traces: bool = True) -> str:
        """:meth:`snapshot` as canonical JSON (sorted keys, no spaces)."""
        snap = self._snapshot(include_traces)
        return json.dumps(snap, sort_keys=True, separators=(",", ":"))

    def render_text(self) -> str:
        """Human-oriented summary (counters, histograms, events)."""
        snap = self._snapshot(include_traces=False)
        lines = ["-- telemetry --"]
        for name, value in snap["counters"].items():
            lines.append(f"{name}: {value:g}")
        for name, summ in snap["histograms"].items():
            lines.append(
                f"{name}: n={summ['count']} mean={summ['mean']:.2f} "
                f"p50={summ['p50']:.2f} p95={summ['p95']:.2f} "
                f"p99={summ['p99']:.2f} max={summ['max']:.2f}"
            )
        for gname, stats in snap["gauges"].items():
            pairs = " ".join(f"{k}={v:g}" for k, v in sorted(stats.items()))
            lines.append(f"{gname}: {pairs}")
        for event in snap["events"]:
            fields = " ".join(
                f"{k}={v}" for k, v in event.items() if k != "kind"
            )
            lines.append(f"event[{event['kind']}]: {fields}")
        if snap["traces_dropped"]:
            lines.append(f"traces dropped: {snap['traces_dropped']}")
        return "\n".join(lines)
