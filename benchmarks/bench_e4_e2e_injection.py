"""E4: multi-join estimation + end-to-end plan quality (STATS-benchmark
style, [12]).

For each estimator, all sub-query cardinalities of every test query are
injected into the native planner (PilotScope's batch-injection interface),
the chosen plan is executed on the simulator, and both the estimation
accuracy (q-error over all injected sub-queries) and the end-to-end
workload latency are reported -- with true-cardinality injection as the
oracle lower line.

Expected shape ([12]): better sub-query estimates give better plans but
gains saturate; join-aware methods (FactorJoin/NeuroCard-style) estimate
multi-join queries better than uniformity-composed per-table models;
nobody beats the oracle.
"""

import numpy as np

from repro.bench import render_table
from repro.cardest import (
    FactorJoinEstimator,
    FSPNEstimator,
    HistogramEstimator,
    MSCNEstimator,
    NeuroCardEstimator,
)
from repro.cardest.base import q_error_summary
from repro.core.interfaces import InjectedCardinalities
from repro.sql import WorkloadGenerator


def test_e4_injection(benchmark, stats_db, stats_executor, stats_optimizer,
                      stats_simulator, stats_train):
    gen = WorkloadGenerator(stats_db, seed=55)
    # Fixed join templates keep NeuroCard's per-template training bounded.
    workload = (
        gen.join_template_workload(["posts", "users"], 25)
        + gen.join_template_workload(["comments", "posts", "users"], 25)
        + gen.join_template_workload(["posts", "users", "votes"], 25)
    )

    train_q, train_c = stats_train

    def run():
        class Oracle:
            name = "oracle(true cards)"

            def estimate(self, query):
                return stats_executor.cardinality(query)

        estimators = [
            HistogramEstimator(stats_db),
            MSCNEstimator(stats_db, epochs=60).fit(train_q, train_c),
            FSPNEstimator(stats_db),
            FactorJoinEstimator(stats_db),
            NeuroCardEstimator(stats_db, epochs=10, n_samples=1200),
            Oracle(),
        ]
        rows = []
        latencies = {}
        for est in estimators:
            injected = InjectedCardinalities(stats_optimizer.estimator)
            opt = stats_optimizer.with_estimator(injected)
            total_latency = 0.0
            sub_preds, sub_truth = [], []
            for q in workload:
                injected.clear()
                for sub in q.connected_subqueries():
                    guess = max(est.estimate(sub), 0.0)
                    injected.inject(sub, guess)
                    sub_preds.append(guess)
                    sub_truth.append(stats_executor.cardinality(sub))
                plan = opt.plan(q)
                total_latency += stats_simulator.execute(plan).latency_ms
            s = q_error_summary(np.array(sub_preds), np.array(sub_truth))
            latencies[est.name] = total_latency
            rows.append((est.name, s["p50"], s["p90"], s["max"], total_latency))
        return rows, latencies

    rows, latencies = benchmark.pedantic(run, rounds=1, iterations=1)
    oracle_lat = latencies["oracle(true cards)"]
    rows = [r + (r[4] / oracle_lat,) for r in rows]
    print(
        render_table(
            "E4: sub-query q-error -> end-to-end workload latency (75 join queries)",
            ["estimator", "sub_p50", "sub_p90", "sub_max", "latency_ms", "vs_oracle"],
            rows,
            note="oracle = exact cardinalities injected; plan-quality gains saturate",
        )
    )
    for name, lat in latencies.items():
        assert lat >= oracle_lat * 0.98, f"{name} beat the oracle: impossible"
    assert latencies["histogram"] >= oracle_lat
