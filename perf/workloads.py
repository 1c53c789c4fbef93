"""The four benchmark workloads.

Each builder takes a seed and returns one assembled :class:`Round`: the
program under test receives only the generated queries / schedule.  A
benchmark run measures several rounds of one workload (sub-seeds
``seed * 100 + r``), each on a freshly built stack, so set-up is timed
once per round and one slow seed cannot own a run.

The stack is driven only through package-level public exports and the
scenario builders; ``n_sessions=2`` wherever the runtime spawns session
threads, because the reference box has two cores.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.lifecycle import drift_recovery_scenario
from repro.optimizer import PlanCache
from repro.pilotscope import PilotScopeConsole, SimulatedPostgreSQL
from repro.serve import (
    ConsoleBackend,
    RuntimeConfig,
    ServingRuntime,
    Stage,
    build_schedule,
    steady_state_scenario,
)
from repro.serve.fabric import (
    FabricConfig,
    build_fabric_schedule,
    default_tenant_specs,
    synthetic_fabric,
    synthetic_queries,
)
from repro.sql import WorkloadGenerator
from repro.storage import make_stats_lite

__all__ = ["Round", "Workload", "WORKLOADS", "sql_digest"]


@dataclass
class Round:
    """One assembled workload instance, ready for its single timed call."""

    backends: list  # every backend whose ``serve`` carries the gap shim
    run: Callable[[], object]  # the timed call; returns a Run/FabricReport
    queries: list  # the generated requests' queries, in request order
    digest: Callable[[], str]  # sha256 of the deterministic decision export
    db: object = None  # data served counts are checked against (None: synthetic)
    check_from: int = 0  # first global_seq whose answer is checked
    #: traced pass only: wraps closures the scenario built (hooks, retrainer)
    instrument: Callable[[Callable], None] = lambda wrap: None
    #: layer counters read after the run: name -> stats dict
    counts: Callable[[], dict] = dict


@dataclass(frozen=True)
class Workload:
    why: str
    build: Callable[[int, bool], Round]  # (seed, smoke) -> Round
    round_s: float  # set-up + serve seconds of one round on the reference box
    tail_pct: int  # highest percentile with >= 10 pooled samples beyond it
    period: int = 1  # traced pass records one block of loop iterations in ``period``


def sql_digest(queries) -> str:
    """SHA-256 over the generated SQL texts, in request order."""
    h = hashlib.sha256()
    for query in queries:
        h.update(query.to_sql().encode())
        h.update(b"\n")
    return h.hexdigest()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _session_queries(schedule) -> list:
    """Queries of a per-session schedule, back in global request order."""
    requests = sorted((r for session in schedule for r in session), key=lambda r: r.global_seq)
    return [r.query for r in requests]


def _bao_live_adhoc(seed: int, smoke: bool) -> Round:
    scenario = steady_state_scenario(
        stage=Stage.LIVE,
        n_queries=40 if smoke else 150,
        n_sessions=2,
        scale=0.3,
        seed=seed,
    )
    deployment = scenario.deployment
    return Round(
        backends=[deployment],
        run=scenario.run,
        queries=_session_queries(scenario.schedule),
        digest=lambda: _sha(scenario.runtime.telemetry.to_json()),
        db=scenario.db,
        counts=lambda: {
            "cardcache": deployment.cache_stats(),
            "memo": scenario.simulator.executor.cache_stats(),
        },
    )


def _native_prepared_mix(seed: int, smoke: bool) -> Round:
    n_templates, bindings, n_adhoc = (8, 4, 8) if smoke else (64, 30, 480)
    db = make_stats_lite(scale=0.3, seed=seed)
    hot = WorkloadGenerator(db, seed=seed + 1).parameterized_workload(
        n_templates, bindings, 2, 4, require_predicate=True
    )
    adhoc = WorkloadGenerator(db, seed=seed + 2).workload(
        n_adhoc, 2, 4, require_predicate=True
    )
    queries = hot + adhoc
    order = np.random.default_rng((seed, 3)).permutation(len(queries))
    queries = [queries[i] for i in order]
    # The 64 hot templates fit the cache; the one-off stream does not.
    cache = PlanCache(256)
    interactor = SimulatedPostgreSQL(db)
    backend = ConsoleBackend(PilotScopeConsole(interactor, plan_cache=cache))
    runtime = ServingRuntime(
        backend, config=RuntimeConfig(timeout_ms=None, queue_capacity=None)
    )
    schedule = build_schedule(queries, 2, seed=seed)
    return Round(
        backends=[backend],
        run=lambda: runtime.run(schedule),
        queries=_session_queries(schedule),
        digest=lambda: _sha(runtime.telemetry.to_json()),
        db=db,
        counts=lambda: {
            "plancache": cache.stats(),
            "cardcache": interactor.optimizer.cache_stats(),
            "memo": interactor.simulator.executor.cache_stats(),
        },
    )


def _fabric_synthetic(seed: int, smoke: bool) -> Round:
    specs = default_tenant_specs(6)
    scenario = synthetic_fabric(
        16,
        specs,
        seed=seed,
        n_workers=2,
        shard_config=RuntimeConfig(),
        fabric_config=FabricConfig(seed=seed, keep_outcomes=False),
    )
    fabric = scenario.fabric
    pool = synthetic_queries(240, seed=seed)
    n_requests = 2_000 if smoke else 100_000
    queries = [pool[i % len(pool)] for i in range(n_requests)]
    schedule = build_fabric_schedule(
        queries, specs, seed=seed, mean_interarrival_ms=0.6
    )
    export: list[str] = []

    def run():
        report = fabric.run(schedule)
        export.append(fabric.export_json())
        return report

    return Round(
        backends=[shard.backend for shard in fabric.shards],
        run=run,
        queries=queries,
        digest=lambda: _sha(export[-1]),
        counts=lambda: {"router": fabric.router.stats()},
    )


def _drift_lifecycle(seed: int, smoke: bool) -> Round:
    n_queries, cadence = (120, 40) if smoke else (500, 200)
    scenario = drift_recovery_scenario(
        n_queries=n_queries,
        n_sessions=2,
        cadence_queries=cadence,
        closed_loop=True,
        seed=seed,
    )
    runtime, scheduler = scenario.runtime, scenario.scheduler

    def instrument(wrap) -> None:
        runtime.hooks[scenario.drift_at] = wrap(
            runtime.hooks[scenario.drift_at], "storage.drift"
        )
        scheduler.retrainer = wrap(scheduler.retrainer, "lifecycle.retrain")

    return Round(
        backends=[runtime.backend],
        run=scenario.run,
        queries=_session_queries(scenario.schedule),
        digest=lambda: _sha(scenario.telemetry.to_json() + scenario.registry.to_json()),
        db=scenario.db,
        check_from=scenario.drift_at,
        instrument=instrument,
        counts=lambda: {
            "cardcache": scenario.deployment.cache_stats(),
            "memo": scenario.executor.cache_stats(),
            "scheduler": scheduler.stats(),
        },
    )


WORKLOADS: dict[str, Workload] = {
    "bao_live_adhoc": Workload(
        why="distinct ad-hoc joins through Bao's arm sweep, tree-conv scoring and "
        "in-band retraining: learned stack does the work, caches cannot help",
        build=_bao_live_adhoc,
        round_s=3.2,
        tail_pct=98,
    ),
    "native_prepared_mix": Workload(
        why="64 hot templates x 30 bindings shuffled with 480 one-off queries on the "
        "native plan-cache path: learned stack bypassed; hits, misses and evictions all occur",
        build=_native_prepared_mix,
        round_s=3.5,
        tail_pct=99,
    ),
    "fabric_synthetic": Workload(
        why="100k requests over 16 shards with a constant-time backend: quota, routing, "
        "admission, telemetry and merge are the whole cost, the inverse of bao_live_adhoc",
        build=_fabric_synthetic,
        round_s=2.4,
        tail_pct=99,
        period=32,
    ),
    "drift_lifecycle": Workload(
        why="GBDT-steered planner with a mid-stream data drift: caches invalidated and "
        "re-warmed, drift and cadence triggers retrain, gate and redeploy in-band",
        build=_drift_lifecycle,
        round_s=4.0,
        tail_pct=98,
    ),
}
