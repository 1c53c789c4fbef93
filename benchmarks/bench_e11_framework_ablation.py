"""E11: ablation of the unified framework (paper §2.2).

Crosses the steering exploration strategies (hint sets / cardinality
scaling / leading-table hints) with the risk models (pointwise tree-conv,
pairwise comparator, variance-filtered ensemble), and adds the other two
§2.2 categories, whose exploration consults the model it is paired with:
learned search from scratch (value search x value network) and ML-aided
enumeration (top-k DP x pairwise comparator).  11 learned optimizers, each
given the same offline warm-up (observe up to 3 executed candidates for 30
training queries) and the same 150-query evaluation workload.

Expected shape: every combination is viable (the framework claim); hint
sets + pointwise reproduces Bao, scaling + pairwise reproduces Lero;
pairwise/ensemble risk models have smaller regression tails than the
pointwise model at similar or slightly lower speedup; search stays near
the native plan at this training budget, and the aided DP *is* the native
plan: one shadow pair every 7th query leaves the comparator below its
15-pair floor, so it ranks by cost throughout.
"""

from benchmarks.contract import Table, imdb_db, imdb_optimizer, imdb_simulator, table_export
from repro.core.framework import LearnedOptimizer, RetrainCadence
from repro.costmodel import PlanFeaturizer
from repro.e2e import (
    CardinalityScalingExploration,
    EnsembleLatencyModel,
    HintSetExploration,
    LeadingTableExploration,
    OptimizationLoop,
    PairwisePlanComparator,
    PlanValueModel,
    TopKDPExploration,
    TreeConvLatencyModel,
    ValueSearchExploration,
)
from repro.sql import WorkloadGenerator


def measure(seed=0):
    db, optimizer, simulator = imdb_db(), imdb_optimizer(), imdb_simulator()
    warmup = WorkloadGenerator(db, seed=71 + seed).workload(
        30, 2, 5, require_predicate=True
    )
    workload = WorkloadGenerator(db, seed=72 + seed).workload(
        150, 2, 5, require_predicate=True
    )
    featurizer = PlanFeaturizer(db, optimizer.estimator)

    strategies = {
        "hints": lambda: HintSetExploration(optimizer),
        "card_scale": lambda: CardinalityScalingExploration(optimizer),
        "leading": lambda: LeadingTableExploration(optimizer),
    }
    risk_models = {
        "pointwise": lambda: TreeConvLatencyModel(featurizer, thompson=False, seed=seed),
        "pairwise": lambda: PairwisePlanComparator(featurizer, seed=seed),
        "variance": lambda: EnsembleLatencyModel(featurizer, seed=seed),
    }

    def combinations():
        for s_name, make_strategy in strategies.items():
            for r_name, make_risk in risk_models.items():
                yield s_name, r_name, make_strategy(), make_risk()
        # From-scratch search and aided enumeration consult the model they
        # are paired with while exploring, so each comes with its own.
        value = PlanValueModel(featurizer, seed=seed)
        yield (
            "value_search", "value",
            ValueSearchExploration(optimizer, value, seed=seed), value,
        )
        # shadow executions of the DP runner-up are where the pairs come from
        comparator = PairwisePlanComparator(featurizer, seed=seed)
        yield (
            "topk_dp", "pairwise",
            TopKDPExploration(
                optimizer, comparator, shadow_executor=simulator.latency
            ),
            comparator,
        )

    rows = []
    for s_name, r_name, strategy, risk in combinations():
        # Shared offline warm-up: observe executed candidates.
        for q in warmup:
            for cand in strategy.candidates(q)[:3]:
                risk.observe(cand, simulator.execute(cand.plan).latency_ms)
        risk.retrain()
        learned = LearnedOptimizer(strategy, risk, name=f"{s_name}+{r_name}")
        loop = OptimizationLoop(
            learned, simulator, optimizer, policies=[RetrainCadence(learned, every=30)]
        )
        loop.run(workload)
        s = loop.summary(tail=75)
        rows.append(
            (
                s_name,
                r_name,
                s["workload_speedup"],
                s["n_regressions"],
                s["worst_regression"],
            )
        )
    return [
        Table(
            "E11: exploration strategy x risk model (tail of 75 queries)",
            ["exploration", "risk model", "speedup", "regressions", "worst"],
            rows,
            note="hints+pointwise ~ Bao; card_scale+pairwise ~ Lero; "
            "leading+variance ~ HyperQO; value_search+value ~ Neo (from scratch); "
            "topk_dp+pairwise ~ LEON (aided)",
        )
    ]


export = table_export(measure)


def test_e11_framework_ablation():
    (table,) = measure()
    print(table.render())
    speedups = [r["speedup"] for r in table.records()]
    assert all(sp > 0.7 for sp in speedups), "every combination must stay viable"
    assert max(speedups) > 1.1, "the framework should find real wins"
