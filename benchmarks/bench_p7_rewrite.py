"""P7: learned query rewriting with an oracle-validated leaderboard, gated.

Four properties are measured and gated on a rewrite-susceptible workload
(OR-heavy disjunctions, wide IN lists, pushdown-blocked join-column
predicates, redundant / mergeable range pairs -- all drawn from
``WorkloadGenerator.rewrite_susceptible_workload``):

1. **Oracle cleanliness**: every promotion on the leaderboard re-verifies
   result-identical -- exact COUNT equality against the original (union
   splits must *sum* to it), then every rewritten query through the
   :class:`~repro.oracle.equivalence.PlanEquivalenceChecker` (all
   enumerated plan shapes agree).  Zero mismatches, zero violations.
2. **Speedup**: the promoted set achieves >= 1.05x geometric-mean
   simulated speedup, and serving the whole workload through
   :class:`~repro.rewrite.RewritingOptimizer` (OptimizationLoop +
   DeploymentManager shipped SHADOW -> CANARY -> LIVE) shows no
   single-query regression worse than 0.9x.
3. **Learning**: anti-pattern feedback measurably shifts rule selection --
   after fitting the retrieval store on phase-one outcomes, a fresh
   leaderboard over the same workload attempts fewer down-weighted rules
   than cold start (``skipped_by_weight > 0`` and a different candidate
   mix).
4. **Determinism**: two same-seed runs export byte-identical leaderboard
   snapshots and telemetry.

Gates: ``python -m pytest`` on this file; deterministic export (leaderboard
snapshot, store examples, telemetry -- virtual latencies only, no
wall-clock): ``python -m benchmarks p7 --export out.json``.
"""

import json
from collections import Counter

from repro.bench import render_stats, render_table
from repro.e2e.loop import OptimizationLoop
from repro.engine.simulator import ExecutionSimulator
from repro.oracle.equivalence import PlanEquivalenceChecker
from repro.rewrite import (
    GoldExampleStore,
    PromotionLeaderboard,
    RewritingOptimizer,
)
from repro.serve.deployment import DeploymentManager
from repro.serve.telemetry import TelemetryBus
from repro.sql import WorkloadGenerator
from repro.storage.datasets import make_stats_lite

GEOMEAN_GATE = 1.05
REGRESSION_FLOOR = 0.9


# -- measured passes --------------------------------------------------------------


def leaderboard_pass(seed: int = 0) -> dict:
    """Build the workload, run the full candidate/validate/promote pipeline.

    The workload is generated *before* any submission: IN -> join attaches
    values relations to the live database, and the generator reads the
    live table list.
    """
    db = make_stats_lite(scale=0.15, seed=seed)
    workload = WorkloadGenerator(db, seed=seed + 11).rewrite_susceptible_workload(30)
    telemetry = TelemetryBus()
    store = GoldExampleStore(db, seed=seed)
    leaderboard = PromotionLeaderboard(db, store=store, telemetry=telemetry)
    leaderboard.submit_workload(workload)
    return {
        "db": db,
        "workload": workload,
        "leaderboard": leaderboard,
        "store": store,
        "telemetry": telemetry,
    }


def oracle_pass(ctx: dict) -> dict:
    """Re-verify every promotion: exact counts, then all plan shapes."""
    leaderboard = ctx["leaderboard"]
    checker = PlanEquivalenceChecker(
        ctx["db"], leaderboard.optimizer, check_reference=False
    )
    recount_mismatches = 0
    plan_violations = 0
    checked = 0
    for candidate, _entry in leaderboard.promotions:
        checked += 1
        result = leaderboard.validator.validate(candidate)
        if result.mismatch:
            recount_mismatches += 1
        plan_violations += len(
            leaderboard.validator.deep_check(candidate, checker)
        )
    return {
        "promotions_checked": checked,
        "recount_mismatches": recount_mismatches,
        "plan_violations": plan_violations,
        "plans_checked": checker.plans_checked,
    }


def serving_pass(ctx: dict) -> dict:
    """Ship the rewrites: OptimizationLoop per-query regression floor,
    then SHADOW -> CANARY -> LIVE through a DeploymentManager."""
    db, leaderboard = ctx["db"], ctx["leaderboard"]
    rewriter = RewritingOptimizer(leaderboard)
    loop = OptimizationLoop(
        rewriter,
        ExecutionSimulator(db, executor=leaderboard.executor),
        leaderboard.optimizer,
    )
    results = [loop.run_query(q) for q in ctx["workload"]]
    speedups = sorted(round(r.speedup, 6) for r in results)

    deployment = DeploymentManager(
        RewritingOptimizer(leaderboard),
        leaderboard.optimizer,
        ExecutionSimulator(db, executor=leaderboard.executor),
        telemetry=ctx["telemetry"],
        name="rewrite",
    )
    shadow = [deployment.serve(q) for q in ctx["workload"]]
    assert not any(d.served_learned for d in shadow)  # SHADOW serves native
    deployment.promote()  # -> CANARY
    deployment.promote()  # -> LIVE
    live = [deployment.serve(q) for q in ctx["workload"]]
    live_rewrites = sum(
        1 for d in live if d.plan_source.startswith("rewrite:")
    )
    return {
        "speedups": speedups,
        "min_speedup": min(speedups),
        "rewrites_served_loop": rewriter.rewrites_served,
        "live_rewrites": live_rewrites,
        "final_stage": deployment.stage.value,
    }


def feedback_pass(seed: int = 0) -> dict:
    """Cold-start vs post-feedback rule selection on the same workload."""
    ctx = leaderboard_pass(seed=seed)
    cold = ctx["leaderboard"]
    mix_cold = Counter(e.rule for e in cold.entries)
    ctx["store"].fit()
    warm = PromotionLeaderboard(ctx["db"], store=ctx["store"])
    warm.submit_workload(ctx["workload"])
    mix_warm = Counter(e.rule for e in warm.entries)
    return {
        "mix_cold": dict(sorted(mix_cold.items())),
        "mix_warm": dict(sorted(mix_warm.items())),
        "skipped_by_weight": warm.counters["skipped_by_weight"],
        "demoted_cold": cold.counters["demoted"],
        "demoted_warm": warm.counters["demoted"],
    }


def full_run(seed: int = 0) -> dict:
    """Everything the determinism gate compares across two processes."""
    ctx = leaderboard_pass(seed=seed)
    oracle = oracle_pass(ctx)
    serving = serving_pass(ctx)
    return {
        "ctx": ctx,
        "oracle": oracle,
        "serving": serving,
        "leaderboard_json": ctx["leaderboard"].to_json(),
        "store_export": ctx["store"].export(),
        "telemetry_json": ctx["telemetry"].to_json(),
    }


def export(seed: int = 0) -> str:
    """Deterministic content only: virtual latencies, no wall-clock."""
    run = full_run(seed)
    blob = {
        "seed": seed,
        "leaderboard": json.loads(run["leaderboard_json"]),
        "store": run["store_export"],
        "oracle": run["oracle"],
        "serving": run["serving"],
        "feedback": feedback_pass(seed),
        "telemetry": json.loads(run["telemetry_json"]),
    }
    return json.dumps(blob, indent=2, sort_keys=True, default=str) + "\n"


# -- gates (pytest-collectable) -----------------------------------------------------


def test_p7_promoted_rewrites_oracle_clean():
    ctx = leaderboard_pass(seed=0)
    oracle = oracle_pass(ctx)
    stats = ctx["leaderboard"].stats()
    print(
        render_stats(
            stats,
            title="P7: promotion funnel",
            note=f"{oracle['plans_checked']} plan shapes re-executed over "
            f"{oracle['promotions_checked']} promotions",
        )
    )
    assert oracle["promotions_checked"] > 0, "nothing promoted"
    assert stats["mismatches"] == 0, "validation let a wrong rewrite through"
    assert oracle["recount_mismatches"] == 0, "promoted rewrite changed results"
    assert oracle["plan_violations"] == 0, "a rewritten plan shape diverged"


def test_p7_speedup_gates():
    ctx = leaderboard_pass(seed=0)
    leaderboard = ctx["leaderboard"]
    serving = serving_pass(ctx)
    geomean = leaderboard.geomean_promoted()
    print(
        render_table(
            "P7: shipping gate",
            ["geomean", "min_speedup", "loop_rewrites", "live_rewrites", "stage"],
            [(
                f"{geomean:.3f}x",
                f"{serving['min_speedup']:.3f}x",
                serving["rewrites_served_loop"],
                serving["live_rewrites"],
                serving["final_stage"],
            )],
            note=f"gates: geomean >= {GEOMEAN_GATE}x, "
            f"min per-query >= {REGRESSION_FLOOR}x",
        )
    )
    assert leaderboard.counters["promoted"] > 0
    assert geomean >= GEOMEAN_GATE, f"geomean {geomean:.3f}x below gate"
    assert serving["min_speedup"] >= REGRESSION_FLOOR, (
        f"a query regressed to {serving['min_speedup']:.3f}x on the way to LIVE"
    )
    assert serving["live_rewrites"] > 0, "LIVE never served a rewrite"
    assert serving["final_stage"] == "live"


def test_p7_antipattern_feedback_shifts_selection():
    result = feedback_pass(seed=0)
    rows = [
        (rule, result["mix_cold"].get(rule, 0), result["mix_warm"].get(rule, 0))
        for rule in sorted(set(result["mix_cold"]) | set(result["mix_warm"]))
    ]
    print(
        render_table(
            "P7: rule selection, cold vs post-feedback",
            ["rule", "cold candidates", "warm candidates"],
            rows,
            note=f"{result['skipped_by_weight']} attempts suppressed by "
            "anti-pattern weights",
        )
    )
    assert result["skipped_by_weight"] > 0, "feedback never suppressed a rule"
    assert result["mix_warm"] != result["mix_cold"], (
        "post-feedback candidate mix identical to cold start"
    )
    assert result["demoted_warm"] <= result["demoted_cold"], (
        "feedback increased demotions"
    )


def test_p7_determinism_same_seed_exports():
    a = full_run(seed=3)
    b = full_run(seed=3)
    assert a["leaderboard_json"] == b["leaderboard_json"], (
        "same-seed leaderboard snapshots diverged"
    )
    assert a["telemetry_json"] == b["telemetry_json"], (
        "same-seed telemetry exports diverged"
    )
    assert a["store_export"] == b["store_export"]
