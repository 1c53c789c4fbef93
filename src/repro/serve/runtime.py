"""The serving core: admission, breaker, backend, telemetry -- one path.

Every request takes :meth:`ServingRuntime.submit`: admission control
sheds work a real front-end would refuse (a typed :class:`Rejected`
instead of a result), the optional circuit breaker guards the backend,
the backend serves, and the one outcome object -- :class:`Served` or
:class:`Rejected` -- is both returned to the caller and filed on the
telemetry bus, which renders its trace row from it at export time.  The
two drivers differ only in the *lane* a request occupies while it
(virtually) executes: :meth:`ServingRuntime.run` drains a
:func:`build_schedule` workload in ``global_seq`` order with each request
pinned to its session's lane; the fabric calls :meth:`submit` with no
lane, which takes the earliest-free of the core's ``n_workers`` lanes
(:class:`repro.serve.fabric.ShardRuntime` is this class plus a name).

**Admission semantics.**  At a request's arrival, ``in_flight`` is the
number of requests admitted on this core whose virtual finish is later
than the arrival, and ``wait`` is how long the request's lane stays busy
past the arrival.  Checked in order:

=============  ================================  ==========================
reason         condition                         knob (``None`` disables)
=============  ================================  ==========================
``timeout``    ``wait > timeout_ms``             ``RuntimeConfig.timeout_ms``
``queue_full`` ``in_flight > queue_capacity``    ``.queue_capacity``
``overload``   ``in_flight >= max_in_flight``    ``.max_in_flight``
``shard_open`` the core's breaker denies         ``breaker=``
``error``      backend raised ``DriverError``    (feeds the breaker)
=============  ================================  ==========================

Any other exception propagates to the caller as itself.

**Determinism.**  The model stack underneath is stateful and trains on
the feedback stream, so the order queries reach the backend changes every
later decision: requests are processed strictly in arrival order by one
plain loop.  Time inside the core is *virtual* (arrival offsets plus
simulated latencies), so admission is reproducible and independent of
host load; wall-clock figures are reported separately in
:class:`RunReport` and never enter the telemetry bus.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable

from repro.core.errors import ConfigError, DriverError
from repro.core.interfaces import Backend, Decision
from repro.core.records import slot_init
from repro.faults.resilience import CircuitBreaker
from repro.pilotscope.console import PilotScopeConsole
from repro.serve.telemetry import TelemetryBus
from repro.sql.query import Query, query_hash

__all__ = [
    "Request",
    "Served",
    "Rejected",
    "RuntimeConfig",
    "RunReport",
    "ConsoleBackend",
    "build_schedule",
    "ServingRuntime",
]


@slot_init
@dataclass(frozen=True, slots=True)
class Request:
    """One scheduled client request."""

    session_id: int  # in a fabric, the session is the tenant: its registration index
    seq: int  # position within the session's queue
    global_seq: int  # position in the deterministic global order
    arrival_ms: float  # virtual arrival offset from run start
    query: Query


@slot_init
@dataclass(frozen=True, slots=True)
class Served:
    """A request that made it through admission and was executed.

    ``cache_hits`` / ``cache_misses`` are the deltas of the planner's
    cardinality-cache counters around this request; ``audit`` is the
    online-oracle outcome: ``""`` (not sampled), ``"ok"``,
    ``"violation"`` or ``"skipped"`` (re-verification exceeded the
    auditor's row guard).
    """

    request: Request
    stage: str  # deployment stage at serve time
    plan_source: str  # winning candidate source or "native"
    latency_ms: float
    wait_ms: float
    cardinality: int
    estimator_tag: str = ""  # the backend's name
    cache_hits: int = 0
    cache_misses: int = 0
    audit: str = ""

    def trace_row(self) -> dict:
        """This request as the telemetry export writes it; ``session_id``
        / ``seq`` are the deterministic identity the snapshot sorts by."""
        request = self.request
        return {
            "session_id": request.session_id,
            "seq": request.seq,
            "query_hash": query_hash(request.query),
            "outcome": "served",
            "stage": self.stage,
            "plan_source": self.plan_source,
            "estimator_tag": self.estimator_tag,
            "latency_ms": self.latency_ms,
            "wait_ms": self.wait_ms,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "audit": self.audit,
        }


@slot_init
@dataclass(frozen=True, slots=True)
class Rejected:
    """A request the core refused.

    ``reason`` is ``"timeout"``, ``"queue_full"``, ``"overload"``,
    ``"shard_open"`` or ``"error"`` -- see the admission table in the
    module docstring -- or, for requests a fabric refused before any
    shard saw them, ``"quota"``, ``"unavailable"`` or ``"qos_shed"``.
    """

    request: Request
    reason: str
    wait_ms: float
    estimator_tag: str = ""  # the refusing core's backend ("": the fabric)

    def trace_row(self) -> dict:
        """The same twelve keys as :meth:`Served.trace_row`: the reason is
        the outcome; nothing was staged, planned, executed or audited."""
        request = self.request
        return {
            "session_id": request.session_id,
            "seq": request.seq,
            "query_hash": query_hash(request.query),
            "outcome": self.reason,
            "stage": "",
            "plan_source": "",
            "estimator_tag": self.estimator_tag,
            "latency_ms": 0.0,
            "wait_ms": self.wait_ms,
            "cache_hits": 0,
            "cache_misses": 0,
            "audit": "",
        }


@dataclass(frozen=True)
class RuntimeConfig:
    """Admission-control knobs; ``None`` disables the corresponding check.

    ``timeout_ms`` bounds a request's queueing delay.  ``queue_capacity``
    and ``max_in_flight`` are two thresholds on the same count -- requests
    admitted on the core and not yet (virtually) finished at the arrival:
    ``queue_full`` when it *exceeds* ``queue_capacity``, ``overload`` when
    it has *reached* ``max_in_flight`` (so ``max_in_flight=0`` refuses
    everything).  A negative threshold is a :class:`ConfigError`.
    """

    timeout_ms: float | None = 2_000.0
    queue_capacity: int | None = 16
    max_in_flight: int | None = None

    def __post_init__(self) -> None:
        for name in ("timeout_ms", "queue_capacity", "max_in_flight"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ConfigError(f"{name} must be >= 0 or None, got {value}")


@dataclass(frozen=True)
class RunReport:
    """Aggregate outcome of one :meth:`ServingRuntime.run`."""

    n_requests: int
    n_served: int
    rejected: dict[str, int]
    wall_seconds: float
    simulated_span_ms: float  # virtual time from first arrival to last finish
    outcomes: list  # Served | Rejected, sorted by (session_id, seq)

    @property
    def wall_qps(self) -> float:
        return self.n_served / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def simulated_qps(self) -> float:
        span_s = self.simulated_span_ms / 1_000.0
        return self.n_served / span_s if span_s else 0.0


def build_schedule(
    queries: list[Query],
    n_sessions: int,
    *,
    seed: int = 0,
    mean_interarrival_ms: float = 20.0,
) -> list[list[Request]]:
    """Deterministic session assignment + arrival times for a workload.

    Queries are dealt round-robin over ``n_sessions`` sessions; each
    session draws exponential interarrival gaps from its own seeded
    generator, so the whole schedule is a pure function of
    ``(queries, n_sessions, seed, mean_interarrival_ms)``.  The returned
    requests carry global sequence numbers ordering them by
    ``(arrival_ms, session_id)`` -- the order the execution core uses.
    """
    import numpy as np

    if n_sessions < 1:
        raise ConfigError("need at least one session")
    per_session: list[list] = [[] for _ in range(n_sessions)]
    for i, query in enumerate(queries):
        per_session[i % n_sessions].append(query)
    pending: list[tuple[float, int, int, Query]] = []
    for sid, qs in enumerate(per_session):
        rng = np.random.default_rng((seed, sid))
        clock = 0.0
        for seq, q in enumerate(qs):
            clock += float(rng.exponential(mean_interarrival_ms))
            pending.append((clock, sid, seq, q))
    pending.sort(key=lambda t: (t[0], t[1], t[2]))
    schedule: list[list[Request]] = [[] for _ in range(n_sessions)]
    for g, (arrival, sid, seq, q) in enumerate(pending):
        schedule[sid].append(
            Request(
                session_id=sid,
                seq=seq,
                global_seq=g,
                arrival_ms=arrival,
                query=q,
            )
        )
    return schedule


class ConsoleBackend:
    """Adapt a :class:`PilotScopeConsole` to the :class:`Backend` protocol.

    The console's transparent driver routing becomes the serving path;
    there is no deployment stage, so every decision reports ``live``.
    """

    name = ""  # no model behind it: traces carry an empty estimator tag
    telemetry = None

    def __init__(self, console: PilotScopeConsole) -> None:
        self.console = console
        self.plan_cache = console.plan_cache

    def cache_stats(self) -> None:
        return None

    def serve(self, query: Query) -> Decision:
        outcome = self.console.execute(query)
        return Decision(
            stage="live",
            plan_source=self.console.last_served_by,
            latency_ms=outcome.latency_ms,
            cardinality=outcome.cardinality,
        )


class ServingRuntime:
    """The serving core: one admission path over one :class:`Backend`.

    ``hooks`` maps a global sequence number to a callable :meth:`run`
    calls just before that request is submitted -- the drift scenarios use
    this to mutate the database mid-stream.  ``n_workers`` is the number
    of lanes :meth:`submit` places un-pinned requests on; ``breaker``
    optionally guards the backend, its virtual clock advanced to each
    arrival so cooldowns elapse with traffic, not wall time.

    ``auditor`` optionally attaches a sampled online correctness audit
    (see :class:`repro.oracle.OnlineAuditor`): each served request passes
    through ``auditor.observe(query, cardinality, bus=...)`` and the
    returned tag lands on the request's :class:`Served`.
    """

    def __init__(
        self,
        backend: Backend,
        *,
        config: RuntimeConfig | None = None,
        telemetry: TelemetryBus | None = None,
        hooks: dict[int, Callable[[], None]] | None = None,
        auditor=None,
        n_workers: int = 1,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        if n_workers < 1:
            raise ConfigError("need at least one worker")
        self.backend = backend
        self.config = config if config is not None else RuntimeConfig()
        self.telemetry = (
            telemetry
            if telemetry is not None
            else backend.telemetry or TelemetryBus()
        )
        self.hooks = dict(hooks) if hooks else {}
        self.auditor = auditor
        self.n_workers = n_workers
        self.breaker = breaker
        self.submitted = 0
        self.served = 0
        self.errors = 0
        self._histograms = None  # (latency_ms | None, wait_ms), bound on the first serve
        self._reset(n_workers)
        if backend.plan_cache is not None:
            self.telemetry.attach_gauge("plan_cache", backend.plan_cache.stats)

    def _reset(self, n_lanes: int) -> None:
        """Start a fresh virtual timeline with ``n_lanes`` idle lanes."""
        self._busy_until = [0.0] * n_lanes
        self._in_flight: list[float] = []  # finish-time min-heap
        self.span_ms = 0.0  # latest virtual finish on this core

    def backlog(self, at_ms: float) -> int:
        """Admitted requests still in flight at virtual ``at_ms``.

        Pops finished entries from the heap as a side effect -- safe
        because callers only ever ask about the current (monotone)
        arrival time.
        """
        heap = self._in_flight
        while heap and heap[0] <= at_ms:
            heappop(heap)
        return len(heap)

    # -- the per-request path -----------------------------------------------------

    def submit(self, req: Request, lane: int | None = None, in_flight: int | None = None):
        """Admit and (virtually) execute one request.

        Must be called in arrival order.  ``lane=None`` places the request
        on the earliest-free worker lane (ties to the lower id).
        ``in_flight`` is :meth:`backlog` at the request's arrival when the
        caller has already read it (``None``: read it here).  Returns
        :class:`Served` or :class:`Rejected`, the same object it files
        on the bus as the request's trace.
        """
        self.submitted += 1
        arrival = req.arrival_ms
        breaker = self.breaker
        if breaker is not None:
            now = breaker.clock.now_ms()
            if arrival > now:
                breaker.clock.advance(arrival - now)
        if in_flight is None:
            in_flight = self.backlog(arrival)
        busy = self._busy_until
        if lane is None:
            lane = busy.index(min(busy))
        start = max(busy[lane], arrival)
        wait = start - arrival
        config = self.config
        backend = self.backend
        bus = self.telemetry
        reason = None
        if config.timeout_ms is not None and wait > config.timeout_ms:
            reason = "timeout"
        elif (
            config.queue_capacity is not None
            and in_flight > config.queue_capacity
        ):
            reason = "queue_full"
        elif (
            config.max_in_flight is not None
            and in_flight >= config.max_in_flight
        ):
            reason = "overload"
        elif breaker is not None and not breaker.allow():
            reason = "shard_open"
        else:
            before = backend.cache_stats()
            try:
                decision = backend.serve(req.query)
            except DriverError:
                self.errors += 1
                if breaker is not None:
                    breaker.record_failure()
                reason = "error"
        if reason is not None:
            bus.incr(f"runtime.rejected.{reason}")
            outcome = Rejected(req, reason, wait, backend.name)
            bus.trace(outcome)
            return outcome
        after = None if before is None else backend.cache_stats()
        if breaker is not None:
            breaker.record_success()
        latency = decision.latency_ms
        finish = start + latency
        busy[lane] = finish
        heappush(self._in_flight, finish)
        if finish > self.span_ms:
            self.span_ms = finish
        self.served += 1
        audit = ""
        if self.auditor is not None:
            audit = self.auditor.observe(
                req.query, decision.cardinality, bus=bus
            )
        histograms = self._histograms
        if histograms is None:
            # Bound on the first serve, so a core that serves nothing
            # exports neither; a backend on the core's own bus files its
            # latency itself.
            histograms = self._histograms = (
                None if backend.telemetry is bus else bus.histogram("latency_ms"),
                bus.histogram("wait_ms"),
            )
        latency_ms, wait_ms = histograms
        if latency_ms is not None:
            latency_ms.record(latency)
        bus.incr("runtime.served")
        wait_ms.record(wait)
        hits = misses = 0
        if after is not None:
            hits = int(after["hits"] - before["hits"])
            misses = int(after["misses"] - before["misses"])
        outcome = Served(
            req,
            decision.stage,
            decision.plan_source,
            latency,
            wait,
            decision.cardinality,
            backend.name,
            hits,
            misses,
            audit,
        )
        bus.trace(outcome)
        return outcome

    # -- the schedule driver ------------------------------------------------------

    def run(self, schedule: list[list[Request]]) -> RunReport:
        """Drain one scheduled workload on a fresh virtual timeline: one
        lane per session, requests submitted in ``global_seq`` order."""
        requests = sorted(
            (r for sess in schedule for r in sess), key=lambda r: r.global_seq
        )
        self._reset(len(schedule))
        outcomes = []
        t0 = time.perf_counter()
        for req in requests:
            hook = self.hooks.get(req.global_seq)
            if hook is not None:
                hook()
            outcomes.append(self.submit(req, lane=req.session_id))
        wall = time.perf_counter() - t0
        rejected = Counter(o.reason for o in outcomes if isinstance(o, Rejected))
        outcomes.sort(key=lambda o: (o.request.session_id, o.request.seq))
        return RunReport(
            n_requests=len(requests),
            n_served=len(requests) - sum(rejected.values()),
            rejected=dict(sorted(rejected.items())),
            wall_seconds=wall,
            simulated_span_ms=self.span_ms,
            outcomes=outcomes,
        )
