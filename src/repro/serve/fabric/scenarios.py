"""Canned fabric assemblies for tests, benchmarks and examples.

Two tiers, matching how the subsystem is validated:

- :func:`synthetic_fabric` serves through :class:`SyntheticBackend` --
  virtual latency derived purely from the query hash -- so the fabric
  layer itself (routing, quotas, QoS shedding, breaker failover, merge
  determinism) can be measured at 10^5+ requests across 16+ shards in
  seconds.  This is what ``bench_p9_fabric.py`` gates scaling and
  fairness on.
- :func:`sharded_fabric_scenario` assembles the *real* per-shard stack:
  each shard gets its own :class:`~repro.serve.deployment.
  DeploymentManager` (Bao-style learned optimizer staged CANARY over the
  native planner), its own plan cache, its own :class:`~repro.faults.
  BoundGuard`, and its own circuit breaker on its own virtual clock --
  the full production topology at test scale.

Both support a seeded :class:`~repro.faults.FaultPlan` whose specs
target shards by name (``"shard03"``), so breaker-trip-and-reroute
behaviour is reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cardest.bounds import MCVJoinBoundEstimator
from repro.core.framework import RetrainCadence
from repro.core.interfaces import Decision
from repro.e2e.bao import BaoOptimizer
from repro.engine.simulator import ExecutionSimulator
from repro.faults import BoundGuard, FaultInjector, FaultPlan
from repro.optimizer.plancache import PlanCache
from repro.optimizer.planner import Optimizer
from repro.optimizer.traditional import TraditionalCardinalityEstimator
from repro.serve.deployment import DeploymentManager, Stage
from repro.serve.fabric.fabric import (
    FabricConfig,
    ServingFabric,
    build_fabric_schedule,
)
from repro.serve.fabric.shard import ShardRuntime, guarded_shard
from repro.serve.fabric.tenants import TenantRegistry, TenantSpec
from repro.serve.runtime import Request, RuntimeConfig
from repro.serve.telemetry import TelemetryBus
from repro.sql.generator import WorkloadGenerator
from repro.sql.query import Query, query_hash
from repro.storage.datasets import make_stats_lite

__all__ = [
    "SyntheticBackend",
    "FabricScenario",
    "default_tenant_specs",
    "hot_tenant_specs",
    "synthetic_queries",
    "synthetic_fabric",
    "sharded_fabric_scenario",
]

#: multiplier for seed scrambling in SyntheticBackend (splitmix64 constant)
_MIX = 0x9E3779B97F4A7C15


class SyntheticBackend:
    """A deterministic constant-time serving backend for scale runs.

    Service latency is a pure function of ``(seed, query_hash)`` --
    uniform on ``[4, 12)`` ms -- so
    a query costs the same wherever it is routed (which is what makes
    shard-count scaling comparisons apples to apples) and two same-seed
    runs are byte-identical.  No planner, no simulator: the fabric layer
    is the system under test.
    """

    telemetry = None
    plan_cache = None

    def __init__(self, *, seed: int = 0) -> None:
        self.seed = int(seed)
        self.name = "synthetic"
        self.calls = 0
        self._mix = self.seed * _MIX
        self._scale = 1.0 / float(1 << 48)  # a power of two: exact

    def cache_stats(self) -> None:
        return None

    def serve(self, query: Query) -> Decision:
        self.calls += 1
        h = int(query_hash(query), 16)
        u = ((h ^ self._mix) & 0xFFFFFFFFFFFF) * self._scale
        return Decision("live", "synthetic", 4.0 + 8.0 * u, h % 1_000_000)


@dataclass
class FabricScenario:
    """A fully-assembled fabric: run it, inspect the pieces."""

    fabric: ServingFabric
    schedule: list[Request]

    def run(self):
        return self.fabric.run(self.schedule)


def default_tenant_specs(n_tenants: int = 6) -> tuple[TenantSpec, ...]:
    """Equal-weight, unthrottled tenants cycling through the QoS classes."""
    qos_cycle = ("interactive", "batch", "background")
    return tuple(
        TenantSpec(tenant_id=f"tenant{i:02d}", qos=qos_cycle[i % len(qos_cycle)])
        for i in range(n_tenants)
    )


def hot_tenant_specs(
    *,
    n_victims: int = 3,
    hot_weight: float = 8.0,
    hot_rate_per_s: float | None = None,
) -> tuple[TenantSpec, ...]:
    """A hot-tenant skew mix: one ``batch`` tenant issuing ``hot_weight``
    times its fair share of traffic, alongside ``n_victims`` interactive
    tenants.  The fairness gate runs this against the same specs at
    ``hot_weight=1`` and bounds the victims' p99 inflation."""
    victims = tuple(
        TenantSpec(tenant_id=f"victim{i:02d}", qos="interactive")
        for i in range(n_victims)
    )
    hot = TenantSpec(
        tenant_id="hot",
        qos="batch",
        weight=hot_weight,
        rate_per_s=hot_rate_per_s,
        burst=max(32.0, hot_rate_per_s or 32.0),
    )
    return victims + (hot,)


def synthetic_queries(n_templates: int = 240, *, seed: int = 0) -> list[Query]:
    """A pool of distinct query templates for synthetic fabric runs, over a
    STATS-like database at scale 0.05.

    Scale runs tile these over 10^5+ requests: real workloads repeat
    templates heavily, ``query_hash`` memoizes per Query object, and the
    router sees a realistic (finite) key population.
    """
    db = make_stats_lite(scale=0.05, seed=seed)
    return WorkloadGenerator(db, seed=seed + 1).workload(
        n_templates, 2, 3, require_predicate=True
    )


def synthetic_fabric(
    n_shards: int,
    specs: tuple[TenantSpec, ...] | list,
    *,
    fabric_config: FabricConfig,
    seed: int = 0,
    n_workers: int = 2,
    shard_config: RuntimeConfig | None = None,
    fault_plan: FaultPlan | None = None,
) -> FabricScenario:
    """Assemble a synthetic-backend fabric (no schedule attached yet --
    pair with :func:`synthetic_queries` + :func:`build_fabric_schedule`,
    or use the returned scenario's empty schedule slot); each shard's bus
    keeps its first 256 traces and counts the later ones in
    ``traces_dropped``."""
    injector = _shared_injector(fault_plan)
    shards = [
        guarded_shard(
            i,
            SyntheticBackend(seed=seed),
            injector=injector,
            n_workers=n_workers,
            config=shard_config,
            telemetry=TelemetryBus(trace_capacity=256),
        )
        for i in range(n_shards)
    ]
    return _scenario(shards, specs, fabric_config, injector, [])


def _shared_injector(fault_plan: FaultPlan | None) -> FaultInjector | None:
    """The one injector a fabric's shards share, or None without a plan.

    Its counters reach telemetry only through the fabric's
    ``fault_injector`` gauge (see :func:`_scenario`): no shard's bus is
    the injector's, so its own bus stays private to it."""
    return None if fault_plan is None else FaultInjector(fault_plan, telemetry=TelemetryBus())


def _scenario(
    shards: list[ShardRuntime],
    specs,
    config: FabricConfig,
    injector: FaultInjector | None,
    schedule: list[Request],
) -> FabricScenario:
    fabric = ServingFabric(shards, TenantRegistry(specs), config=config)
    if injector is not None:
        fabric.telemetry.attach_gauge("fault_injector", injector.stats)
    return FabricScenario(fabric=fabric, schedule=schedule)


def sharded_fabric_scenario(
    *,
    n_shards: int = 4,
    scale: float = 0.3,
    seed: int = 0,
    n_queries: int = 96,
    fault_plan: FaultPlan | None = None,
) -> FabricScenario:
    """The full per-shard production stack at test scale.

    One shared database and six default tenants arriving 30 ms apart on
    average; per shard, a complete serving stack: a native optimizer with
    its own cardinality cache, a Bao-style learned optimizer staged CANARY
    behind that shard's own
    :class:`~repro.serve.deployment.DeploymentManager`, a per-shard
    :class:`~repro.optimizer.PlanCache`, a per-shard
    :class:`~repro.faults.BoundGuard` over the estimator feeding the
    learned side, and a per-shard circuit breaker on a per-shard virtual
    clock.  A ``fault_plan`` with shard-named targets wraps those
    backends in the fault injector for reroute drills.
    """
    db = make_stats_lite(scale=scale, seed=seed)
    specs = default_tenant_specs()
    injector = _shared_injector(fault_plan)
    shards: list[ShardRuntime] = []
    for i in range(n_shards):
        bus = TelemetryBus()
        native = Optimizer(db)
        # No private breaker: the shard breaker owns routing health.
        guard = BoundGuard(
            native.estimator,
            MCVJoinBoundEstimator(db),
            TraditionalCardinalityEstimator(db),
            telemetry=bus,
        )
        bao = BaoOptimizer(native.with_estimator(guard), seed=seed + i)
        deployment = DeploymentManager(
            bao,
            native,
            ExecutionSimulator(db),
            telemetry=bus,
            stage=Stage.CANARY,
            canary_fraction=0.5,
            regression_threshold=3.0,
            plan_cache=PlanCache(),
            policies=[RetrainCadence(bao, every=25), guard],
        )
        shards.append(
            guarded_shard(
                i, deployment, injector=injector, config=None, telemetry=bus
            )
        )
    queries = WorkloadGenerator(db, seed=seed + 1).workload(
        n_queries, 2, 4, require_predicate=True
    )
    return _scenario(
        shards,
        specs,
        FabricConfig(seed=seed),
        injector,
        build_fabric_schedule(queries, specs, seed=seed, mean_interarrival_ms=30.0),
    )
