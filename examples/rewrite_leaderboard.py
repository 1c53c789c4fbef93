"""Learned query rewriting: rules, oracle gate, promotion, serving.

Walks the whole rewrite subsystem end to end on a rewrite-susceptible
workload:

1. **Candidates** -- every query runs the rule library (predicate
   pushdown, IN -> join, OR -> UNION, redundant-predicate elimination,
   range merging); each applicable rule emits a candidate with
   provenance.
2. **Validation** -- candidates pass the zero-tolerance exact-count gate
   (the same machinery as the metamorphic oracle) before any timing.
3. **Promotion** -- validated candidates are timed on the execution
   simulator; >= 1.05x promotes (gold example), <= 0.95x demotes
   (anti-pattern for that query cluster), and the leaderboard serves the
   best promoted rewrite per query.
4. **Learning** -- after fitting the retrieval store, a second pass over
   the same workload skips the rules that regressed on structurally
   similar queries.
5. **Serving** -- the ``RewritingOptimizer`` wraps the leaderboard behind
   the standard learned-optimizer surface and runs through the
   OptimizationLoop with per-query speedups.

Run:  python examples/rewrite_leaderboard.py
"""

from collections import Counter

from repro.bench import render_stats, render_table
from repro.e2e.loop import OptimizationLoop
from repro.engine.simulator import ExecutionSimulator
from repro.rewrite import (
    GoldExampleStore,
    PromotionLeaderboard,
    RewritingOptimizer,
)
from repro.sql import WorkloadGenerator
from repro.storage import make_stats_lite


def main() -> None:
    db = make_stats_lite(scale=0.15, seed=0)
    workload = WorkloadGenerator(db, seed=11).rewrite_susceptible_workload(30)

    # -- cold pass: every applicable rule is tried, the oracle gates all
    store = GoldExampleStore(db, seed=0)
    leaderboard = PromotionLeaderboard(db, store=store)
    leaderboard.submit_workload(workload)
    print(render_stats(leaderboard.stats(), title="cold pass"))

    outcomes = Counter((e.rule, e.status) for e in leaderboard.entries)
    print(
        render_table(
            "per-rule outcomes (cold)",
            ["rule", "status", "count"],
            [(r, s, c) for (r, s), c in sorted(outcomes.items())],
        )
    )

    # -- learning: anti-patterns shift rule selection on similar queries
    store.fit()
    warm = PromotionLeaderboard(db, store=store)
    warm.submit_workload(workload)
    print(
        render_table(
            "feedback shift",
            ["", "candidates", "demoted", "skipped by weight"],
            [
                ("cold", leaderboard.counters["candidates"],
                 leaderboard.counters["demoted"], 0),
                ("warm", warm.counters["candidates"],
                 warm.counters["demoted"],
                 warm.counters["skipped_by_weight"]),
            ],
            note="rules that regressed on a cluster are skipped there",
        )
    )

    # -- serving: promoted rewrites through the standard loop
    rewriter = RewritingOptimizer(leaderboard)
    loop = OptimizationLoop(
        rewriter,
        ExecutionSimulator(db, executor=leaderboard.executor),
        leaderboard.optimizer,
    )
    results = loop.run(workload)
    served = [r for r in results if r.plan_source.startswith("rewrite:")]
    print(
        render_table(
            "serving",
            ["queries", "rewrites served", "geomean promoted", "min speedup"],
            [(
                len(results),
                len(served),
                f"{leaderboard.geomean_promoted():.3f}x",
                f"{min(r.speedup for r in results):.3f}x",
            )],
            note="non-rewritten queries serve the native plan: no regression",
        )
    )


if __name__ == "__main__":
    main()
