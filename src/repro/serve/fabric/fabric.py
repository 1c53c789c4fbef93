"""The serving fabric: tenants in, shards out, one deterministic loop.

:class:`ServingFabric` composes the subsystem: a
:class:`~repro.serve.fabric.tenants.TenantRegistry` decides quota
admission per tenant, a :class:`~repro.serve.fabric.router.ShardRouter`
places admitted requests on one of N :class:`~repro.serve.fabric.shard.
ShardRuntime` shards, and a :class:`~repro.serve.fabric.aggregate.
TelemetryAggregator` merges the per-shard buses plus the fabric's own bus
into one export.  :meth:`ServingFabric.run` drains a
:func:`build_fabric_schedule` in global arrival order -- a single
deterministic loop, so two same-seed runs produce byte-identical fabric
exports even though 16+ shards serve concurrently *in virtual time*.

A fabric request is a :class:`~repro.serve.runtime.Request` whose
``session_id`` is its tenant's registration index in the
:class:`~repro.serve.fabric.tenants.TenantRegistry`.

Request lifecycle, in order:

1. **quota** -- the tenant's token bucket (reject reason ``"quota"``);
2. **routing** -- two-choice placement by ``query_hash`` or tenant id,
   skipping shards whose breaker is open (``"unavailable"`` when no
   shard is healthy);
3. **QoS shed** -- ``background`` tenants are shed when the target
   shard's backlog exceeds a low watermark, ``batch`` at a higher one
   (``"qos_shed"``); ``interactive`` is never shed here;
4. **shard admission + service** -- the shard's
   :meth:`~repro.serve.runtime.ServingRuntime.submit`: the one admission
   path (timeout / queue_full / overload / shard_open / error) and the
   backend.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.errors import ConfigError
from repro.serve.fabric.aggregate import TelemetryAggregator
from repro.serve.fabric.router import ShardRouter
from repro.serve.fabric.shard import ShardRuntime
from repro.serve.fabric.tenants import TenantRegistry, TenantSpec
from repro.serve.runtime import Rejected, Request, RunReport, Served
from repro.serve.telemetry import Histogram, TelemetryBus
from repro.sql.query import Query, query_hash

__all__ = [
    "FabricConfig",
    "FabricReport",
    "ServingFabric",
    "build_fabric_schedule",
]


@dataclass(frozen=True)
class FabricConfig:
    """Fabric-level knobs (shard-level knobs live on each shard's
    :class:`~repro.serve.runtime.RuntimeConfig`).

    The shed backlogs are in-flight request counts on the *target* shard
    at arrival: ``background`` traffic is shed first (low watermark),
    ``batch`` later (high watermark), ``interactive`` only by the shard's
    own admission control.  ``keep_outcomes=False`` drops the per-request
    outcome list from the report -- counters and histograms only -- which
    large benchmark runs use to bound memory.
    """

    seed: int = 0
    background_shed_backlog: int = 8
    batch_shed_backlog: int = 24
    keep_outcomes: bool = True

    def __post_init__(self) -> None:
        if self.background_shed_backlog < 0 or self.batch_shed_backlog < 0:
            raise ConfigError("shed backlogs must be >= 0")
        if self.background_shed_backlog > self.batch_shed_backlog:
            raise ConfigError(
                "background must shed at or below the batch watermark"
            )


@dataclass(frozen=True)
class FabricReport(RunReport):
    """Aggregate outcome of one :meth:`ServingFabric.run`: a
    :class:`~repro.serve.runtime.RunReport` (``rejected`` counts fabric-
    and shard-level reasons alike; ``outcomes`` is in arrival order)
    plus the per-shard and per-tenant breakdowns."""

    shard_served: list[int]
    #: tenant -> end-to-end (wait + service) latency summary
    tenant_latency: dict[str, dict[str, float]]


class _TenantRun:
    """One tenant's part of one run: its id, its shed watermark (``None``:
    never shed here), its response histogram (bound on its first served
    request) and the counts the run files on the bus when it ends."""

    __slots__ = ("tenant_id", "watermark", "response", "served", "rejected")

    def __init__(self, tenant_id: str, watermark: int | None) -> None:
        self.tenant_id = tenant_id
        self.watermark = watermark
        self.response: Histogram | None = None
        self.served = 0
        self.rejected = 0


class ServingFabric:
    """N shards, one router, one tenant registry, one merged export."""

    def __init__(
        self,
        shards: list[ShardRuntime],
        tenants: TenantRegistry,
        *,
        config: FabricConfig,
        router: ShardRouter | None = None,
    ) -> None:
        if not shards:
            raise ConfigError("fabric needs at least one shard")
        self.shards = list(shards)
        self.tenants = tenants
        self.config = config
        self.router = (
            router
            if router is not None
            else ShardRouter(len(self.shards), seed=self.config.seed)
        )
        if self.router.n_shards != len(self.shards):
            raise ConfigError("router shard count != fabric shard count")
        self.telemetry = TelemetryBus()
        self.telemetry.attach_gauge("router", self.router.stats)
        self.telemetry.attach_gauge("tenants", self.tenants.stats)
        self.aggregator = TelemetryAggregator(
            fabric_bus=self.telemetry,
            shard_buses={s.name: s.telemetry for s in self.shards},
        )
        self._last_arrival_ms = float("-inf")  # of the previous run

    # -- the event loop -----------------------------------------------------------

    def run(self, schedule: list[Request]) -> FabricReport:
        """Drain a fabric schedule in global arrival order.

        A request's tenant is the one registered at index
        ``request.session_id``; a session id no tenant holds is a
        :class:`ConfigError`.  Successive runs continue one virtual
        timeline -- the shards keep their lanes, in-flight heaps and
        breaker clocks -- so a schedule that starts before the previous
        run's last arrival is a :class:`ConfigError` too.
        """
        if schedule:
            first = schedule[0].arrival_ms
            if first < self._last_arrival_ms:
                raise ConfigError(
                    f"schedule starts at {first} ms, before the previous run's "
                    f"last arrival at {self._last_arrival_ms} ms: a fabric's "
                    "virtual time only moves forward"
                )
            self._last_arrival_ms = schedule[-1].arrival_ms
        bus = self.telemetry
        config = self.config
        shards, router, tenants = self.shards, self.router, self.tenants
        watermarks = {
            "background": config.background_shed_backlog,
            "batch": config.batch_shed_backlog,
        }
        # indexed by session id
        rows = [
            _TenantRun(tid, watermarks.get(tenants.qos(tid)))
            for tid in tenants.registration_order()
        ]
        n_tenants = len(rows)
        keep_outcomes = config.keep_outcomes
        outcomes: list = []
        rejected: dict[str, int] = {}  # every reason, shard-level ones too
        shed: dict[str, int] = {}  # the fabric's own reasons
        n_served = 0
        t0 = time.perf_counter()
        try:
            for req in schedule:
                session = req.session_id
                if not 0 <= session < n_tenants:
                    raise ConfigError(
                        f"session id {session} names no tenant: "
                        f"{n_tenants} are registered"
                    )
                row = rows[session]
                tenant = row.tenant_id
                arrival = req.arrival_ms
                reason = tenants.admit(tenant, arrival)
                if reason is None:
                    key = router.routing_key(query_hash(req.query), tenant)
                    shard_id = router.route(key, shards, arrival)
                    if shard_id is None:
                        reason = "unavailable"
                    else:
                        # the chosen shard's backlog, read once: the router's
                        # reading when it compared candidates, else this one
                        in_flight = router.chosen_backlog
                        if in_flight is None:
                            in_flight = shards[shard_id].backlog(arrival)
                        if row.watermark is not None and in_flight > row.watermark:
                            reason = "qos_shed"
                if reason is None:
                    outcome = shards[shard_id].submit(req, in_flight=in_flight)
                    if isinstance(outcome, Served):
                        n_served += 1
                        row.served += 1
                        response = row.response
                        if response is None:
                            response = row.response = bus.histogram(
                                f"tenant.{tenant}.response_ms"
                            )
                        response.record(outcome.wait_ms + outcome.latency_ms)
                    else:
                        reason = outcome.reason
                else:
                    outcome = Rejected(req, reason, 0.0)
                    shed[reason] = shed.get(reason, 0) + 1
                if reason is not None:
                    row.rejected += 1
                    rejected[reason] = rejected.get(reason, 0) + 1
                if keep_outcomes:
                    outcomes.append(outcome)
        finally:
            # the run's counters reach the bus once, even when a request
            # raised; the export sorts counters, so the order is free
            if n_served:
                bus.incr("fabric.served", n_served)
            for reason, n in shed.items():
                bus.incr(f"fabric.rejected.{reason}", n)
            for row in rows:
                if row.served:
                    bus.incr(f"tenant.{row.tenant_id}.served", row.served)
                if row.rejected:
                    bus.incr(f"tenant.{row.tenant_id}.rejected", row.rejected)
        wall = time.perf_counter() - t0
        span = max((s.span_ms for s in shards), default=0.0)
        return FabricReport(
            n_requests=len(schedule),
            n_served=n_served,
            rejected=dict(sorted(rejected.items())),
            wall_seconds=wall,
            simulated_span_ms=span,
            shard_served=[s.served for s in shards],
            tenant_latency={
                tid: bus.histogram_summary(f"tenant.{tid}.response_ms")
                for tid in self.tenants.tenant_ids()
            },
            outcomes=outcomes,
        )

    # -- export -------------------------------------------------------------------

    def shard_stats(self) -> dict[str, dict[str, float]]:
        """Each shard's ``stats()`` behind the router's assignment count,
        by shard name in shard order -- load balance and failover at a
        glance (``repro.bench.render_stats`` prints it)."""
        return {
            shard.name: {"assigned": float(assigned), **shard.stats()}
            for shard, assigned in zip(self.shards, self.router.assignments)
        }

    def export_json(self, *, include_traces: bool = False) -> str:
        """The fabric-wide merged telemetry export (deterministic bytes)."""
        return self.aggregator.export_json(include_traces=include_traces)


def build_fabric_schedule(
    queries: list[Query],
    specs: list[TenantSpec] | tuple,
    *,
    seed: int = 0,
    mean_interarrival_ms: float = 5.0,
) -> list[Request]:
    """Deterministic tenant mix + global arrival process for a workload.

    Each query draws its tenant from the specs' ``weight`` distribution
    and its arrival gap from one global exponential process -- both from
    the same seeded generator, so the schedule is a pure function of
    ``(queries, specs, seed, mean_interarrival_ms)``.  Per-request
    identity (``session_id`` = tenant index in ``specs``, which names the
    tenant, ``seq`` = per-tenant ordinal) is what traces sort by
    fabric-wide.

    Built in array passes: a stable ``argsort`` of the tenant draws
    groups each tenant's requests in arrival order, so a request's
    ordinal is its rank in that order minus its tenant's first rank (a
    ``bincount`` prefix sum).  Each column crosses to Python once
    (``tolist``), and one ``map`` builds the requests.
    """
    import numpy as np

    if not specs:
        raise ConfigError("need at least one tenant spec")
    n = len(queries)
    rng = np.random.default_rng((int(seed), 9))
    weights = np.array([s.weight for s in specs], dtype=float)
    weights /= weights.sum()
    choices = rng.choice(len(specs), size=n, p=weights)
    arrivals = np.cumsum(rng.exponential(mean_interarrival_ms, size=n))
    counts = np.bincount(choices, minlength=len(specs))
    ordinals = np.empty(n, dtype=np.int64)
    ordinals[np.argsort(choices, kind="stable")] = np.arange(n) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    # each column crosses once, and its array goes before the requests come
    tenants = choices.tolist()
    seqs = ordinals.tolist()
    times = arrivals.tolist()
    del choices, arrivals, counts, ordinals
    return list(map(Request, tenants, seqs, range(n), times, queries))
