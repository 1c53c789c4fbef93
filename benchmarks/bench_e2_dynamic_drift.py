"""E2: estimator accuracy under data drift ([61]'s dynamic setting).

After appending 25% distribution-shifted rows to every table, each
estimator is evaluated three ways: built on the old data and left *stale*,
*updated* through the one life-cycle every method shares
(``refresh()`` re-reads the data, ``fit()`` learns from one post-drift
labelled workload; ``update_s`` is the wall clock of the two calls), and
Robust-MSCN's masked-inference path which needs no update at all.

Expected shape: stale errors blow up (most for query-driven models whose
training queries described the old data); refresh restores accuracy;
Robust-MSCN degrades the least without any update.
"""

import time

import numpy as np

from benchmarks.contract import Table, stats_db, table_export
from repro.bench import apply_drift, estimate_workload
from repro.cardest import (
    BayesNetEstimator,
    FSPNEstimator,
    GBDTQueryEstimator,
    HistogramEstimator,
    MSCNEstimator,
    RobustMSCNEstimator,
    SPNEstimator,
    Warper,
)
from repro.cardest.base import q_error_summary
from repro.engine import CardinalityExecutor
from repro.optimizer import DatabaseStats
from repro.sql import WorkloadGenerator


def measure(seed=0):
    db = stats_db.__wrapped__()  # a private copy: the drift below mutates it
    executor = CardinalityExecutor(db)
    train_gen = WorkloadGenerator(db, seed=1 + seed)
    train_q = train_gen.workload(350, 1, 3, require_predicate=True)
    train_c = np.array([executor.cardinality(q) for q in train_q])

    stale_stats = DatabaseStats.build(db)
    methods = {
        "histogram": HistogramEstimator(db, stale_stats),
        "mscn": MSCNEstimator(db, epochs=60).fit(train_q, train_c),
        "robust_mscn": RobustMSCNEstimator(db, epochs=60).fit(train_q, train_c),
        "bayesnet": BayesNetEstimator(db),
        "spn": SPNEstimator(db),
        "fspn": FSPNEstimator(db),
    }

    apply_drift(db, fraction=0.25, seed=5 + seed)
    executor.clear_cache()
    test_gen = WorkloadGenerator(db, seed=97 + seed)
    test_q = test_gen.workload(120, 1, 3, require_predicate=True)
    test_c = np.array([executor.cardinality(q) for q in test_q])
    fresh_q = WorkloadGenerator(db, seed=11 + seed).workload(
        350, 1, 3, require_predicate=True
    )
    fresh_c = np.array([executor.cardinality(q) for q in fresh_q])

    rows = []
    for name, est in methods.items():
        stale = q_error_summary(estimate_workload(est, test_q), test_c)
        # Each side is a no-op for the family that does not learn from
        # it: refresh re-ANALYZEs / rebuilds the data models, fit refits
        # the supervised ones on post-drift feedback.
        t0 = time.perf_counter()
        est.refresh()
        est.fit(fresh_q, fresh_c)
        update_s = time.perf_counter() - t0
        fresh = q_error_summary(estimate_workload(est, test_q), test_c)
        rows.append(
            (name, stale["gmq"], stale["p90"], fresh["gmq"], fresh["p90"], update_s)
        )
    # Robust-MSCN's no-update masked path.
    masked_est = methods["robust_mscn"]
    masked = q_error_summary(
        np.array([masked_est.estimate_masked(q) for q in test_q]), test_c
    )
    rows.append(("robust_mscn(masked)", masked["gmq"], masked["p90"], "-", "-", "-"))

    # Warper [29]: automatic drift-triggered adaptation of a supervised
    # estimator via targeted query regeneration (detector included).
    # Snapshot semantics: build on pre-drift data would be ideal, but
    # the drift already happened above; emulate by snapshotting a fresh
    # detector on a clean replica, then pointing it at the drifted db.
    clean = stats_db.__wrapped__()
    gbdt = GBDTQueryEstimator(clean)
    warper = Warper(clean, gbdt, seed=seed)
    clean_gen = WorkloadGenerator(clean, seed=1 + seed)
    clean_q = clean_gen.workload(250, 1, 3, require_predicate=True)
    clean_exec = CardinalityExecutor(clean)
    warper.fit_initial(
        clean_q, np.array([clean_exec.cardinality(q) for q in clean_q])
    )
    apply_drift(clean, fraction=0.25, seed=5 + seed)
    clean_exec.clear_cache()
    c_test = WorkloadGenerator(clean, seed=97 + seed).workload(
        120, 1, 3, require_predicate=True
    )
    c_truth = np.array([clean_exec.cardinality(q) for q in c_test])
    stale_w = q_error_summary(
        estimate_workload(gbdt, c_test), c_truth
    )
    t0 = time.perf_counter()
    warper.adapt()
    update_s = time.perf_counter() - t0
    fresh_w = q_error_summary(
        estimate_workload(gbdt, c_test), c_truth
    )
    rows.append(
        ("warper(gbdt) [29]", stale_w["gmq"], stale_w["p90"],
         fresh_w["gmq"], fresh_w["p90"], update_s)
    )
    return [
        Table(
            "E2: q-error under 25% shifted inserts (stale vs refreshed)",
            ["method", "stale_gmq", "stale_p90", "fresh_gmq", "fresh_p90", "update_s"],
            rows,
            timing=("update_s",),
            note="refresh restores accuracy; staleness costs most where models memorized old data",
        )
    ]


export = table_export(measure)


def test_e2_drift():
    (table,) = measure()
    print(table.render())
    # the masked path has no update, so no fresh side to compare
    updated = [r for r in table.records() if r["fresh_gmq"] != "-"]
    improved = sum(1 for r in updated if r["fresh_gmq"] <= r["stale_gmq"] * 1.05)
    assert improved >= len(updated) - 1, "refresh should (almost) never hurt"
