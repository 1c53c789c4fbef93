"""Cross-schema transfer fleet: N generated databases, one serving fabric.

The single-database :func:`~repro.lifecycle.scenario.drift_recovery_scenario`
proves the lifecycle closes the loop on *one* schema it was written
against.  This module runs that scenario as a **fleet**: every member of
a :func:`~repro.storage.schemagen.schema_family` gets its own complete
lifecycle stack -- native optimizer, GBDT-steered champion, experience
store, model registry, drift/q-error triggers, eval gate, deployment
manager -- mounted as one shard of the PR 9 sharded serving fabric, with
one tenant per schema pinned to its schema's shard (a schema's queries
are meaningless anywhere else).  Halfway through the global stream every
database drifts; the closed loop must detect, retrain and recover on
*every* schema concurrently, and two same-seed runs must export
byte-identical merged telemetry.

This is the lifecycle subsystem exercised on schemas nobody hand-tuned
it for -- the "as many scenarios as you can imagine" axis from the
roadmap made systematic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.lifecycle.scenario import DRIFT_FRACTION, LifecycleStack, lifecycle_stack
from repro.serve.fabric.fabric import FabricConfig, ServingFabric
from repro.serve.fabric.router import ShardRouter
from repro.serve.fabric.shard import guarded_shard
from repro.serve.fabric.tenants import TenantRegistry, TenantSpec
from repro.serve.runtime import Request, RuntimeConfig
from repro.sql.generator import WorkloadGenerator
from repro.sql.query import Query
from repro.storage.schemagen import (
    SchemaGenConfig,
    database_fingerprint,
    schema_family,
)

__all__ = [
    "SchemaTenant",
    "TransferFleet",
    "build_fleet_schedule",
    "transfer_fleet_scenario",
]


@dataclass(kw_only=True)
class SchemaTenant(LifecycleStack):
    """One schema's complete lifecycle stack, mounted on one shard."""

    tenant_id: str
    fingerprint: str


@dataclass
class TransferFleet:
    """The assembled fleet: run it, then inspect every schema's loop."""

    name: str
    tenants: list[SchemaTenant]
    fabric: ServingFabric
    schedule: list[Request]
    drift_at: int  # schedule index where the fleet-wide drift lands
    seed: int
    closed_loop: bool
    reports: list = field(default_factory=list)

    @property
    def n_requests(self) -> int:
        return len(self.schedule)

    def apply_drift(self) -> None:
        """Drift every schema's data and invalidate derived state."""
        for i, tenant in enumerate(self.tenants):
            tenant.apply_drift(DRIFT_FRACTION, self.seed + i)
        self.fabric.telemetry.event(
            "fleet_drift",
            at_request=self.drift_at,
            fraction=DRIFT_FRACTION,
            n_schemas=len(self.tenants),
        )

    def run(self):
        """Drain the schedule with the mid-stream fleet-wide drift.

        The fabric loop is already a deterministic total order, so the
        drift hook is expressed as two :meth:`ServingFabric.run` halves
        around one :meth:`apply_drift` -- same-seed runs stay
        byte-identical.
        """
        first, second = (
            self.schedule[: self.drift_at],
            self.schedule[self.drift_at :],
        )
        report_a = self.fabric.run(first)
        self.apply_drift()
        report_b = self.fabric.run(second)
        self.reports = [report_a, report_b]
        return self.reports

    # -- inspection ----------------------------------------------------------------

    def holdout_qerrors(self) -> dict[str, float]:
        return {t.tenant_id: t.holdout_qerror() for t in self.tenants}

    def retrain_stats(self) -> dict[str, dict]:
        return {t.tenant_id: t.scheduler.stats() for t in self.tenants}

    def fingerprints(self) -> dict[str, str]:
        return {t.tenant_id: t.fingerprint for t in self.tenants}

    def export_json(self, *, include_traces: bool = False) -> str:
        """The fleet-wide merged telemetry export (deterministic bytes)."""
        return self.fabric.export_json(include_traces=include_traces)


def build_fleet_schedule(
    streams: list[list[Query]],
    *,
    seed: int = 0,
) -> list[Request]:
    """One global arrival order interleaving each tenant's own stream, 25 ms
    apart on average.

    Unlike :func:`~repro.serve.fabric.build_fabric_schedule`, tenants
    here are *not* interchangeable -- each tenant's queries reference its
    own schema -- so the mix round-robins the given per-tenant streams
    (dropping tenants as they drain) while arrival gaps come from one
    seeded exponential process.  A request's ``session_id`` is its
    tenant's index in ``streams``.  Pure function of its arguments.
    """
    rng = np.random.default_rng((int(seed), 0xF1EE7))
    gaps = rng.exponential(25.0, size=sum(map(len, streams)))
    schedule: list[Request] = []
    now = 0.0
    for seq in range(max(map(len, streams), default=0)):
        for t, queries in enumerate(streams):
            if seq < len(queries):
                now += float(gaps[len(schedule)])
                schedule.append(Request(t, seq, len(schedule), now, queries[seq]))
    return schedule


def transfer_fleet_scenario(
    *,
    n_schemas: int = 8,
    seed: int = 0,
    queries_per_tenant: int = 36,
    closed_loop: bool = True,
) -> TransferFleet:
    """Assemble the fleet: one generated schema per tenant per shard.

    Each tenant's stack trains on 40 queries, holds out 14, checks for
    drift every 8 and cools down 12 after a retrain; requests arrive
    25 ms apart on average, and each shard runs unbounded.

    ``closed_loop=False`` builds the frozen control fleet -- identical
    schemas, streams and drift, but no retraining triggers -- whose
    post-drift q-error the transfer benchmark compares against.
    """
    databases = schema_family(
        n_schemas,
        seed=seed,
        config=SchemaGenConfig(n_tables=(3, 5), rows=(150, 450), attr_cols=(1, 2)),
    )
    config = RuntimeConfig(timeout_ms=None, queue_capacity=None, max_in_flight=None)
    tenants = [
        SchemaTenant(
            **vars(
                lifecycle_stack(
                    db,
                    seed=seed + 10 * i,
                    n_train=40,
                    n_holdout=14,
                    closed_loop=closed_loop,
                    drift_check_every=8,
                    cooldown_queries=12,
                    champion_name=f"steered-{db.name}",
                    warp_queries_per_table=30,
                    qerror_window=32,
                )
            ),
            tenant_id=db.name,
            fingerprint=database_fingerprint(db),
        )
        for i, db in enumerate(databases)
    ]
    # One shard per schema, on the schema's own bus.
    shards = [
        guarded_shard(i, t.deployment, config=config, telemetry=t.telemetry)
        for i, t in enumerate(tenants)
    ]
    specs = tuple(
        TenantSpec(tenant_id=t.tenant_id, qos="interactive") for t in tenants
    )
    router = ShardRouter(
        len(shards),
        seed=seed,
        pinned={t.tenant_id: i for i, t in enumerate(tenants)},
    )
    fabric = ServingFabric(
        shards,
        TenantRegistry(specs),
        config=FabricConfig(seed=seed),
        router=router,
    )
    # a tenant's stream is at its spec's index: the session id names it
    streams = [
        WorkloadGenerator(t.db, seed=seed + 4 + i).workload(
            queries_per_tenant, 1, 3, require_predicate=True
        )
        for i, t in enumerate(tenants)
    ]
    schedule = build_fleet_schedule(streams, seed=seed)
    return TransferFleet(
        name="transfer_fleet" if closed_loop else "transfer_fleet_frozen",
        tenants=tenants,
        fabric=fabric,
        schedule=schedule,
        drift_at=len(schedule) // 2,
        seed=seed,
        closed_loop=closed_loop,
    )
