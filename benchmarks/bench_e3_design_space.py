"""E3: design-space exploration of learned estimators ([53]-style).

Sweeps the training-set size for the query-driven family and reports the
accuracy / training-cost / inference-latency trade-off grid that guides
practitioners' model choice.  Data-driven models (no workload needed) are
included as horizontal reference lines.

Expected shape: query-driven accuracy improves with training data and
plateaus; GBDT is the cheapest to train; data-driven models match or beat
the largest-workload query-driven models on this single-schema setting.
"""

import time

from benchmarks.contract import Table, stats_db, stats_test, stats_train, table_export
from repro.bench import build_estimator, estimate_workload
from repro.cardest.base import q_error_summary

TRAIN_SIZES = [50, 150, 400]
QUERY_DRIVEN = ["linear", "gbdt", "mlp", "mscn"]
DATA_DRIVEN = ["bayesnet", "fspn"]


def measure(seed=0):
    train_q, train_c = stats_train(seed)
    test_q, test_c = stats_test(seed)
    rows = []
    for name in QUERY_DRIVEN:
        for n in TRAIN_SIZES:
            est = build_estimator(name, stats_db(), budget="full", seed=seed)
            t0 = time.perf_counter()
            est.fit(train_q[:n], train_c[:n])
            train_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            preds = estimate_workload(est, test_q)
            infer_ms = (time.perf_counter() - t0) / len(test_q) * 1000
            s = q_error_summary(preds, test_c)
            rows.append((name, n, s["gmq"], s["p90"], train_s, infer_ms))
    for name in DATA_DRIVEN:
        t0 = time.perf_counter()
        est = build_estimator(name, stats_db(), budget="full", seed=seed)
        train_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        preds = estimate_workload(est, test_q)
        infer_ms = (time.perf_counter() - t0) / len(test_q) * 1000
        s = q_error_summary(preds, test_c)
        rows.append((name, "(data)", s["gmq"], s["p90"], train_s, infer_ms))
    return [
        Table(
            "E3: accuracy vs training size vs cost (stats_lite)",
            ["method", "train_n", "gmq", "p90", "train_s", "infer_ms"],
            rows,
            timing=("train_s", "infer_ms"),
            note="query-driven gmq should fall (or plateau) as training data grows",
        )
    ]


export = table_export(measure)


def test_e3_design_space():
    (table,) = measure()
    print(table.render())
    gmq = {(r["method"], r["train_n"]): r["gmq"] for r in table.records()}
    improving = sum(
        1
        for name in QUERY_DRIVEN
        if gmq[name, TRAIN_SIZES[-1]] <= gmq[name, TRAIN_SIZES[0]] * 1.1
    )
    assert improving >= 3, "most query-driven methods should benefit from data"
