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

from benchmarks.contract import (
    Table,
    stats_db,
    stats_executor,
    stats_optimizer,
    stats_simulator,
    stats_train,
    table_export,
)
from repro.cardest import (
    FactorJoinEstimator,
    FSPNEstimator,
    HistogramEstimator,
    MSCNEstimator,
    NeuroCardEstimator,
)
from repro.cardest.base import q_error_summary
from repro.core.interfaces import CardinalityEstimator, InjectedCardinalities
from repro.sql import WorkloadGenerator

ORACLE = "oracle(true cards)"


def measure(seed=0):
    db, executor = stats_db(), stats_executor()
    optimizer, simulator = stats_optimizer(), stats_simulator()
    gen = WorkloadGenerator(db, seed=55 + seed)
    # Fixed join templates keep NeuroCard's per-template training bounded.
    workload = (
        gen.join_template_workload(["posts", "users"], 25)
        + gen.join_template_workload(["comments", "posts", "users"], 25)
        + gen.join_template_workload(["posts", "users", "votes"], 25)
    )
    train_q, train_c = stats_train(seed)

    class Oracle(CardinalityEstimator):
        name = ORACLE

        def estimate(self, query):
            return executor.cardinality(query)

    estimators = [
        HistogramEstimator(db),
        MSCNEstimator(db, epochs=60).fit(train_q, train_c),
        FSPNEstimator(db),
        FactorJoinEstimator(db),
        NeuroCardEstimator(db, epochs=10, n_samples=1200),
        Oracle(),
    ]
    rows = []
    for est in estimators:
        injected = InjectedCardinalities(optimizer.estimator)
        opt = optimizer.with_estimator(injected)
        total_latency = 0.0
        sub_preds, sub_truth = [], []
        for q in workload:
            injected.clear()
            for sub in q.connected_subqueries():
                guess = max(est.estimate(sub), 0.0)
                injected.inject(sub, guess)
                sub_preds.append(guess)
                sub_truth.append(executor.cardinality(sub))
            plan = opt.plan(q)
            total_latency += simulator.execute(plan).latency_ms
        s = q_error_summary(np.array(sub_preds), np.array(sub_truth))
        rows.append((est.name, s["p50"], s["p90"], s["max"], total_latency))
    oracle_lat = next(r[4] for r in rows if r[0] == ORACLE)
    return [
        Table(
            "E4: sub-query q-error -> end-to-end workload latency (75 join queries)",
            ["estimator", "sub_p50", "sub_p90", "sub_max", "latency_ms", "vs_oracle"],
            [r + (r[4] / oracle_lat,) for r in rows],
            note="oracle = exact cardinalities injected; plan-quality gains saturate",
        )
    ]


export = table_export(measure)


def test_e4_injection():
    (table,) = measure()
    print(table.render())
    latencies = {r["estimator"]: r["latency_ms"] for r in table.records()}
    oracle_lat = latencies[ORACLE]
    for name, lat in latencies.items():
        assert lat >= oracle_lat * 0.98, f"{name} beat the oracle: impossible"
    assert latencies["histogram"] >= oracle_lat
