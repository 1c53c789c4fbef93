"""Staged rollout of a learned optimizer: shadow -> canary -> live.

Demonstrates the serving runtime end to end: a Bao-style learned
optimizer is placed behind a :class:`~repro.serve.DeploymentManager` and
walked through the production rollout stages while 8 concurrent sessions
stream queries through :class:`~repro.serve.ServingRuntime`:

1. **SHADOW** -- every query is planned by both sides but served native;
   the learned candidate runs hypothetically off the serving path, so we
   learn what its speedup *would* be at zero user-visible risk.
2. **CANARY** -- after ``promote()``, a deterministic query-hash fraction
   of traffic is served by the learned optimizer; the rest stays native.
3. **LIVE** -- all traffic served learned, still monitored against the
   native baseline.
4. **Rollback** -- finally, a deployment whose model turns adversarial
   mid-stream: the rolling regression window breaches its threshold and
   the manager rolls the model back automatically.

Run:  python examples/serving_canary.py
"""

from repro.bench import render_table
from repro.core import RetrainCadence
from repro.e2e.bao import BaoOptimizer
from repro.engine.simulator import ExecutionSimulator
from repro.optimizer.planner import Optimizer
from repro.serve import (
    DeploymentManager,
    ServingRuntime,
    Stage,
    build_schedule,
    injected_regression_scenario,
)
from repro.sql import WorkloadGenerator
from repro.storage import make_stats_lite


def main() -> None:
    db = make_stats_lite(scale=0.3, seed=0)
    native = Optimizer(db)
    simulator = ExecutionSimulator(db)
    learned = BaoOptimizer(native, seed=0)

    deployment = DeploymentManager(
        learned,
        native,
        simulator,
        stage=Stage.SHADOW,
        canary_fraction=0.5,
        window=30,
        min_samples=10,
        regression_threshold=1.5,
        policies=[RetrainCadence(learned, every=25)],
    )
    runtime = ServingRuntime(deployment)
    queries = WorkloadGenerator(db, seed=1).workload(240, 2, 4, require_predicate=True)

    # One batch of concurrent traffic per rollout stage.
    batches = [queries[:80], queries[80:160], queries[160:]]
    rows = []
    for batch in batches:
        report = runtime.run(build_schedule(batch, n_sessions=8, seed=0))
        snap = deployment.telemetry.snapshot()
        rows.append((
            deployment.stage.value,
            report.n_served,
            snap["counters"].get("serve.learned", 0),
            snap["counters"].get("serve.native", 0),
            f"{deployment.window_mean() or 1.0:.3f}",
        ))
        if deployment.stage is not Stage.LIVE:
            deployment.promote()
    print(
        render_table(
            "staged rollout (counters are cumulative)",
            ["stage", "served", "learned_total", "native_total", "window_mean"],
            rows,
        )
    )
    cache = deployment.cache_stats()
    print(f"planner cardinality cache: {cache['hits']} hits, "
          f"{cache['misses']} misses ({cache['hit_rate']:.1%} hit rate)")

    # A canary that goes bad: automatic rollback, visible in telemetry.
    scenario = injected_regression_scenario(scale=0.3)
    scenario.run()
    print(f"\ninjected-regression canary ended in: {scenario.deployment.stage.value}")
    print(
        render_table(
            "stage transitions",
            ["from", "to", "reason", "at_query"],
            [
                (e["from_stage"], e["to_stage"], e["reason"], e["at_query"])
                for e in scenario.deployment.telemetry.events("stage_transition")
            ],
        )
    )


if __name__ == "__main__":
    main()
