"""E5: learned cost models vs the traditional cost model (§2.1.2).

A corpus of executed plans (all Bao arms over a join workload) is split
train/test; each model predicts held-out latencies.  Reported: Spearman
rank correlation (what matters for plan *selection*), median relative
error, and training time.  The traditional cost model's own cost value is
the baseline "prediction".

Expected shape: plan-structured deep models (tree-conv, tree-recurrent)
rank plans better than the flat linear model; the traditional cost model
ranks decently but is miscalibrated in absolute terms (it is the
simulator's own formulas with *estimated* cards and planner constants).
"""

import time

import numpy as np
from scipy.stats import spearmanr

from benchmarks.contract import Table, imdb_db, imdb_optimizer, imdb_simulator, table_export
from repro.costmodel import (
    CalibratedCostModel,
    LinearPlanCostModel,
    PlanFeaturizer,
    TreeConvCostModel,
    TreeRecurrentCostModel,
    UnifiedTransferableModel,
    ZeroShotCostModel,
)
from repro.engine import CardinalityExecutor
from repro.optimizer import HintSet
from repro.sql import WorkloadGenerator


def measure(seed=0):
    db, optimizer, simulator = imdb_db(), imdb_optimizer(), imdb_simulator()
    gen = WorkloadGenerator(db, seed=5 + seed)
    plans, lats = [], []
    for q in gen.workload(80, 2, 5, require_predicate=True):
        for arm in HintSet.bao_arms()[:5]:
            p = optimizer.plan(q, hints=arm)
            plans.append(p)
            lats.append(simulator.execute(p).latency_ms)
    lats = np.array(lats)
    n_train = int(len(plans) * 0.7)
    featurizer = PlanFeaturizer(db, optimizer.estimator)
    rows = []

    def evaluate(name, predict, train_s):
        preds = np.array([predict(p) for p in plans[n_train:]])
        truth = lats[n_train:]
        rho = float(spearmanr(preds, truth).statistic)
        rel = float(np.median(np.abs(preds - truth) / np.maximum(truth, 1e-9)))
        rows.append((name, rho, rel, train_s))

    evaluate(
        "traditional(cost)",
        lambda p: optimizer.cost(p),
        0.0,
    )
    t0 = time.perf_counter()
    linear = LinearPlanCostModel(featurizer).fit(plans[:n_train], lats[:n_train])
    evaluate("linear", linear.predict_latency, time.perf_counter() - t0)
    t0 = time.perf_counter()
    tc = TreeConvCostModel(featurizer).fit(plans[:n_train], lats[:n_train])
    evaluate("tree_conv [39]", tc.predict_latency, time.perf_counter() - t0)
    t0 = time.perf_counter()
    tr = TreeRecurrentCostModel(featurizer).fit(
        plans[:n_train], lats[:n_train]
    )
    evaluate("tree_recurrent [51]", tr.predict_latency, time.perf_counter() - t0)
    t0 = time.perf_counter()
    zs = ZeroShotCostModel(epochs=50).fit([(featurizer, plans[:n_train], lats[:n_train])])
    evaluate(
        "zero_shot [16]",
        lambda p: zs.predict_latency(p, featurizer),
        time.perf_counter() - t0,
    )
    # BASE: calibrate the traditional cost to latency with few samples.
    t0 = time.perf_counter()
    base = CalibratedCostModel(optimizer).fit(
        plans[: min(n_train, 60)], lats[: min(n_train, 60)]
    )
    evaluate("base(calibrated) [5]", base.predict_latency, time.perf_counter() - t0)
    # MLMTF: multi-task pre-training (latency + cardinality heads).
    executor = CardinalityExecutor(db)
    cards = np.array(
        [executor.cardinality(p.query) for p in plans[:n_train]]
    )
    t0 = time.perf_counter()
    mlmtf = UnifiedTransferableModel(featurizer, seed=seed)
    mlmtf.pretrain(plans[:n_train], lats[:n_train], cards)
    evaluate("mlmtf(multi-task) [66]", mlmtf.predict_latency, time.perf_counter() - t0)
    return [
        Table(
            "E5: latency prediction on held-out plans (imdb_lite, 400 plans)",
            ["model", "spearman_rho", "median_rel_err", "train_s"],
            rows,
            timing=("train_s",),
            note="rank correlation is what plan selection needs; deep models should lead",
        )
    ]


export = table_export(measure)


def test_e5_cost_models():
    (table,) = measure()
    print(table.render())
    rhos = {r["model"]: r["spearman_rho"] for r in table.records()}
    assert rhos["tree_conv [39]"] > 0.7
    assert rhos["tree_conv [39]"] >= rhos["linear"] - 0.05
    assert all(r > 0.3 for r in rhos.values())
    # BASE preserves the traditional model's (good) ranking by construction.
    assert rhos["base(calibrated) [5]"] >= rhos["traditional(cost)"] - 0.1
