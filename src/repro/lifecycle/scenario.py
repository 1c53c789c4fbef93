"""The closed-loop lifecycle scenario: drift, detect, retrain, recover.

This is the assembly that proves the lifecycle subsystem closes the
training loop end to end, and the subject of
``benchmarks/bench_p4_lifecycle.py``:

1. a GBDT query-driven estimator is trained on an initial workload and
   deployed LIVE steering the native planner (a
   :class:`~repro.core.framework.PlannerModel` over
   ``native.with_estimator(estimator)``), registered as the champion.
   Retraining this model means refitting its estimator -- exactly what the
   Warper does -- and it carries no feedback state of its own, so a
   registered version's fingerprint stays stable while it serves
   (:meth:`~repro.lifecycle.registry.ModelRegistry.verify` holds);
2. traffic flows through the :class:`~repro.serve.runtime.ServingRuntime`
   straight into the :class:`~repro.serve.deployment.DeploymentManager`,
   whose ordered policy list is ``[store, registry, scheduler]``: every
   serve feeds the experience store, then the q-error trigger and the
   scheduler's virtual clock; every stage change is filed in the registry;
3. halfway through the stream the runtime's deterministic hook mutates
   the database (:func:`repro.bench.workloads.apply_drift`) -- the frozen
   estimator's q-error degrades because its estimates describe data that
   no longer exists;
4. the scheduler's :class:`~repro.lifecycle.scheduler.DriftTrigger` /
   :class:`~repro.lifecycle.scheduler.QErrorTrigger` fire; the champion is
   *cloned* and the clone adapted by a :class:`~repro.cardest.drift.Warper`
   on drift-targeted, exactly-labelled queries;
5. the challenger passes the :class:`~repro.lifecycle.gates.EvalGate`
   against the stale champion on a held-out workload, enters deployment at
   SHADOW, and auto-promotes to LIVE -- becoming the new champion in the
   :class:`~repro.lifecycle.registry.ModelRegistry`.

With ``closed_loop=False`` the identical stream runs with no triggers:
the frozen baseline whose post-drift q-error the benchmark compares
against.  Everything is virtual-time and seeded, so two same-seed runs
export byte-identical registry and telemetry JSON.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bench.workloads import apply_drift
from repro.cardest.base import q_error
from repro.cardest.drift import DDUpDetector, Warper
from repro.cardest.querydriven import GBDTQueryEstimator
from repro.core.framework import PlannerModel
from repro.engine.executor import CardinalityExecutor
from repro.engine.simulator import ExecutionSimulator
from repro.lifecycle.experience import ExperienceStore
from repro.lifecycle.gates import EvalGate
from repro.lifecycle.registry import ModelRegistry
from repro.lifecycle.scheduler import (
    CadenceTrigger,
    DriftTrigger,
    QErrorTrigger,
    RetrainingScheduler,
    clone_model,
)
from repro.optimizer.planner import Optimizer
from repro.serve.deployment import DeploymentManager, Stage
from repro.serve.runtime import Request, RunReport, ServingRuntime, build_schedule
from repro.serve.telemetry import TelemetryBus
from repro.sql.generator import WorkloadGenerator
from repro.sql.query import Query
from repro.storage.catalog import Database
from repro.storage.datasets import make_stats_lite

__all__ = [
    "DRIFT_FRACTION",
    "LifecycleStack",
    "LifecycleScenario",
    "lifecycle_stack",
    "drift_recovery_scenario",
    "lifecycle_stats",
]


#: share of each table's rows the mid-stream drift appends (the fleet
#: drifts every schema by the same share)
DRIFT_FRACTION = 0.45


@dataclass(kw_only=True)
class LifecycleStack:
    """One database's complete lifecycle stack: inspect every part.

    What :func:`lifecycle_stack` assembles; :class:`LifecycleScenario`
    drives it through a :class:`~repro.serve.runtime.ServingRuntime`, the
    transfer fleet (:mod:`repro.lifecycle.fleet`) mounts one per shard.
    """

    db: Database
    native: Optimizer
    simulator: ExecutionSimulator
    executor: CardinalityExecutor
    telemetry: TelemetryBus
    store: ExperienceStore
    registry: ModelRegistry
    detector: DDUpDetector
    gate: EvalGate
    deployment: DeploymentManager
    scheduler: RetrainingScheduler
    holdout: list[Query]
    shared: tuple

    def holdout_qerror(self) -> float:
        """Current 0.9 q-error quantile of the deployed model on the
        held-out workload against *current* data."""
        estimator = self.deployment.learned.estimator
        errs = [
            q_error(estimator.estimate(q), self.executor.cardinality(q))
            for q in self.holdout
        ]
        return float(np.quantile(np.array(errs), 0.9))

    def apply_drift(self, fraction: float, seed: int) -> None:
        """Drift the data and invalidate everything derived from it."""
        apply_drift(self.db, fraction=fraction, seed=seed)
        self.native.stats.refresh(self.db)
        self.native.cache.clear()
        self.executor.clear_cache()


@dataclass(kw_only=True)
class LifecycleScenario(LifecycleStack):
    """The closed loop behind a serving runtime: run it, then inspect."""

    name: str
    runtime: ServingRuntime
    schedule: list[list[Request]]
    drift_at: int  # global_seq of the drift hook

    def run(self) -> RunReport:
        return self.runtime.run(self.schedule)

    @property
    def n_requests(self) -> int:
        return sum(len(s) for s in self.schedule)


def lifecycle_stats(scenario: LifecycleStack) -> dict[str, dict]:
    """The stat block :func:`repro.bench.report.render_stats`
    renders: one dict per lifecycle component."""
    return {
        "scheduler": scenario.scheduler.stats(),
        "registry": scenario.registry.stats(),
        "store": scenario.store.stats(),
    }


def lifecycle_stack(
    db: Database,
    *,
    seed: int,
    n_train: int,
    n_holdout: int,
    closed_loop: bool,
    drift_check_every: int,
    cooldown_queries: int,
    champion_name: str = "steered-gbdt",
    warp_queries_per_table: int = 40,
    qerror_window: int = 48,
    cadence_queries: int | None = None,
) -> LifecycleStack:
    """Train a champion on ``db`` and wire the whole loop around it.

    A GBDT query-driven estimator steering the native planner, registered
    and deployed LIVE; an experience store fed by every serve; drift and
    q-error (and optionally cadence) triggers when ``closed_loop``; a
    clone-then-Warper retrainer; the eval gate on a held-out workload.
    """
    native = Optimizer(db)
    simulator = ExecutionSimulator(db)
    executor = CardinalityExecutor(db)
    telemetry = TelemetryBus()
    # Infrastructure every model version points at but never owns: shared
    # across clones and excluded from registry fingerprints.
    shared = (db, native, simulator, executor, native.stats, native.cache)

    train_queries = WorkloadGenerator(db, seed=seed + 1).workload(
        n_train, 1, 3, require_predicate=True
    )
    train_cards = np.array(
        [float(executor.cardinality(q)) for q in train_queries]
    )
    estimator = GBDTQueryEstimator(db, seed=seed).fit(train_queries, train_cards)
    champion = PlannerModel(native.with_estimator(estimator), name=champion_name)

    store = ExperienceStore(2_000, seed=seed)
    registry = ModelRegistry(shared=shared, telemetry=telemetry)
    v0 = registry.register(
        champion, trigger="initial", snapshot_id=store.snapshot_id()
    )
    detector = DDUpDetector(db, seed=seed, telemetry=telemetry)
    holdout = WorkloadGenerator(db, seed=seed + 2).workload(
        n_holdout, 1, 3, require_predicate=True
    )
    gate = EvalGate(
        holdout,
        simulator=simulator,
        executor=executor,
        telemetry=telemetry,
        shared=shared,
    )
    deployment = DeploymentManager(
        champion,
        native,
        simulator,
        telemetry=telemetry,
        stage=Stage.LIVE,
        canary_fraction=0.5,
        window=12,
        min_samples=6,
        regression_threshold=5.0,
        auto_promote=True,
        model_version=v0.version_id,
        policies=[store, registry],
    )
    registry.record_stage(v0.version_id, "live", reason="initial")

    history = list(zip(train_queries, train_cards.tolist()))

    def retrainer(current, exp_store, action: str):
        challenger = clone_model(current, shared=shared)
        Warper(
            db,
            challenger.estimator,
            detector=detector,
            queries_per_table=warp_queries_per_table,
            keep_old=len(history),
            seed=seed + 3,
            telemetry=telemetry,
            experience=exp_store,
            history=history,
        ).adapt()
        return challenger

    triggers: list = []
    if closed_loop:
        triggers.append(
            DriftTrigger(detector, check_every=drift_check_every, store=store)
        )
        triggers.append(
            QErrorTrigger(window=qerror_window, min_samples=qerror_window // 2)
        )
        if cadence_queries is not None:
            triggers.append(CadenceTrigger(every_queries=cadence_queries))
    scheduler = RetrainingScheduler(
        registry,
        store,
        retrainer,
        triggers=triggers,
        gate=gate,
        deployment=deployment,
        telemetry=telemetry,
        cooldown_queries=cooldown_queries,
    )
    # Last: it reads what the store ingested and may re-enter deploy().
    deployment.add_policy(scheduler)
    return LifecycleStack(
        db=db,
        native=native,
        simulator=simulator,
        executor=executor,
        telemetry=telemetry,
        store=store,
        registry=registry,
        detector=detector,
        gate=gate,
        deployment=deployment,
        scheduler=scheduler,
        holdout=holdout,
        shared=shared,
    )


def drift_recovery_scenario(
    *,
    scale: float = 0.3,
    seed: int = 0,
    n_queries: int = 240,
    n_sessions: int = 6,
    n_train: int = 120,
    n_holdout: int = 40,
    closed_loop: bool = True,
    drift_check_every: int = 20,
    cadence_queries: int | None = None,
    cooldown_queries: int = 40,
) -> LifecycleScenario:
    """Assemble the drift-then-recover closed loop described above.

    ``closed_loop=False`` builds the *frozen baseline*: the identical
    stack and stream but with no retraining triggers, so the champion
    stays stale after the drift -- the control arm of the benchmark.
    """
    db = make_stats_lite(scale=scale, seed=seed)
    stack = lifecycle_stack(
        db,
        seed=seed,
        n_train=n_train,
        n_holdout=n_holdout,
        closed_loop=closed_loop,
        drift_check_every=drift_check_every,
        cooldown_queries=cooldown_queries,
        cadence_queries=cadence_queries,
    )
    queries = WorkloadGenerator(db, seed=seed + 4).workload(
        n_queries, 1, 3, require_predicate=True
    )
    schedule = build_schedule(queries, n_sessions, seed=seed)
    drift_at = len(queries) // 2

    def _drift() -> None:
        stack.apply_drift(DRIFT_FRACTION, seed)
        stack.telemetry.event(
            "data_drift", at_request=drift_at, fraction=DRIFT_FRACTION
        )

    return LifecycleScenario(
        **vars(stack),
        name="drift_recovery" if closed_loop else "drift_frozen",
        runtime=ServingRuntime(stack.deployment, hooks={drift_at: _drift}),
        schedule=schedule,
        drift_at=drift_at,
    )
