"""E1: single-table estimator accuracy on static data ([61]-style).

"Are we ready for learned cardinality estimation?" -- compares the
traditional baselines against query-driven and data-driven learned
estimators on single-table range workloads, reporting the q-error
quantiles those studies report plus build and inference costs.

Expected shape (from [61]/[53]): data-driven models (Naru/SPN/FSPN/BN)
dominate on single tables; query-driven models sit between them and the
histogram; sampling has good medians but heavy tails.
"""

import time

import numpy as np

from benchmarks.contract import Table, stats_db, stats_executor, table_export
from repro.bench import build_estimator
from repro.bench.suite import estimate_workload, fit_estimator
from repro.cardest.base import q_error_summary
from repro.sql import WorkloadGenerator

METHODS = [
    "histogram",
    "sampling",
    "linear",
    "gbdt",
    "mlp",
    "mscn",
    "quicksel",
    "kde",
    "naru",
    "bayesnet",
    "spn",
    "fspn",
]


def measure(seed=0):
    db, executor = stats_db(), stats_executor()
    tables = ["posts", "users"]
    train_gen = WorkloadGenerator(db, seed=1 + seed)
    test_gen = WorkloadGenerator(db, seed=97 + seed)
    train_q = [
        q for t in tables for q in train_gen.single_table_workload(t, 200)
    ]
    train_c = np.array([executor.cardinality(q) for q in train_q])
    test_q = [q for t in tables for q in test_gen.single_table_workload(t, 100)]
    test_c = np.array([executor.cardinality(q) for q in test_q])

    rows = []
    for name in METHODS:
        # Data-driven estimators train in their constructor, the others in
        # fit: build_s is both, or the family E1 says wins costs 0.00.
        t0 = time.perf_counter()
        est = build_estimator(name, db, budget="full", seed=seed)
        fit_estimator(est, train_q, train_c)
        build_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        preds = estimate_workload(est, test_q)
        infer_ms = (time.perf_counter() - t0) / len(test_q) * 1000
        s = q_error_summary(preds, test_c)
        rows.append(
            (name, s["p50"], s["p90"], s["p99"], s["max"], s["gmq"],
             build_s, infer_ms)
        )
    return [
        Table(
            "E1: single-table q-error, static data (stats_lite, 200 test queries)",
            ["method", "p50", "p90", "p99", "max", "gmq", "build_s", "infer_ms"],
            rows,
            timing=("build_s", "infer_ms"),
            note="shape check: data-driven (naru/bayesnet/spn/fspn) beat the histogram",
        )
    ]


export = table_export(measure)


def test_e1_single_table_accuracy():
    (table,) = measure()
    print(table.render())
    summaries = {r["method"]: r for r in table.records()}
    hist_gmq = summaries["histogram"]["gmq"]
    best_data_driven = min(
        summaries[m]["gmq"] for m in ("naru", "bayesnet", "spn", "fspn")
    )
    assert best_data_driven <= hist_gmq * 1.05
    for name, s in summaries.items():
        assert s["p50"] < 100, f"{name} is pathologically inaccurate"
