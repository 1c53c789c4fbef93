"""E13: zero-shot cost-model transfer across schemas (Hilprecht & Binnig [16]).

The zero-shot claim is "out-of-the-box learned cost prediction" on unseen
databases.  This bench trains the transferable model on executed plans
from three schemas (imdb_lite, stats_lite, tpch_lite) and predicts plan
latencies on the fourth, never-seen one (ssb_lite), in a leave-one-out
rotation.  Baseline: the same architecture trained on the *target*
database only (the non-transfer upper reference) and a single-source
model (how much the multi-database pooling buys).

Expected shape: multi-source zero-shot clearly beats chance and approaches
the in-database model's rank correlation; pooling more source databases
helps (the paper's core result).
"""

import numpy as np
from scipy.stats import spearmanr

from benchmarks.contract import Table, table_export
from repro.costmodel import PlanFeaturizer, ZeroShotCostModel
from repro.engine import ExecutionSimulator
from repro.optimizer import HintSet, Optimizer
from repro.sql import WorkloadGenerator
from repro.storage import make_imdb_lite, make_ssb_lite, make_stats_lite, make_tpch_lite

TARGET = "ssb"
SINGLE_SOURCE = "imdb"
SINGLE = f"zero-shot ({SINGLE_SOURCE} only)"
POOLED = "zero-shot (3 schemas pooled)"
REFERENCE = "in-database reference"


def _databases():
    """The four schemas at scale 0.5; the last is the never-seen target."""
    return {
        "imdb": make_imdb_lite(0.5),
        "stats": make_stats_lite(0.5, seed=0),
        "tpch": make_tpch_lite(),
        TARGET: make_ssb_lite(),
    }


def _corpus(db, seed, n_queries=40):
    opt = Optimizer(db)
    sim = ExecutionSimulator(db)
    feat = PlanFeaturizer(db, opt.estimator)
    gen = WorkloadGenerator(db, seed=seed)
    plans, lats = [], []
    for q in gen.workload(n_queries, 2, 4, require_predicate=True):
        for arm in HintSet.bao_arms()[:4]:
            p = opt.plan(q, hints=arm)
            plans.append(p)
            lats.append(sim.execute(p).latency_ms)
    return feat, plans, np.array(lats)


def measure(seed=0):
    corpora = {name: _corpus(db, 5 + seed) for name, db in _databases().items()}
    tgt_feat, tgt_plans, tgt_lats = corpora[TARGET]
    n_test = len(tgt_plans) // 2
    rows = []

    def evaluate(name, model):
        preds = np.array(
            [model.predict_latency(p, tgt_feat) for p in tgt_plans[:n_test]]
        )
        rows.append((name, float(spearmanr(preds, tgt_lats[:n_test]).statistic)))

    sources = [k for k in corpora if k != TARGET]
    # Single-source transfer.
    single = ZeroShotCostModel(epochs=50, seed=seed)
    feat, plans, lats = corpora[SINGLE_SOURCE]
    single.fit([(feat, list(plans), lats)])
    evaluate(SINGLE, single)
    # Multi-source transfer (the paper's setting).
    multi = ZeroShotCostModel(epochs=50, seed=seed)
    multi.fit([(corpora[s][0], list(corpora[s][1]), corpora[s][2]) for s in sources])
    evaluate(POOLED, multi)
    # In-database reference: trained on the target's other half.
    ref = ZeroShotCostModel(epochs=50, seed=seed)
    ref.fit([(tgt_feat, list(tgt_plans[n_test:]), tgt_lats[n_test:])])
    evaluate(REFERENCE, ref)
    return [
        Table(
            "E13: zero-shot latency ranking on the never-seen ssb_lite schema",
            ["model", "spearman_rho"],
            rows,
            note="trained purely on other schemas' executed plans (transferable features)",
        )
    ]


export = table_export(measure)


def test_e13_zeroshot_transfer():
    (table,) = measure()
    print(table.render())
    rhos = {r["model"]: r["spearman_rho"] for r in table.records()}
    # The transfer shape: pooling multiple source schemas beats a single
    # source, and zero-shot ranking is far better than chance on a schema
    # the model never saw.  (At this corpus size the pooled zero-shot model
    # can even beat the small in-database reference -- more total training
    # plans win; an honest deviation recorded in EXPERIMENTS.md.)
    assert rhos[POOLED] >= rhos[SINGLE] - 0.05
    assert rhos[POOLED] > 0.35
    assert rhos[REFERENCE] > 0.3
