"""E12: mixed conjunctive/disjunctive predicates (Mueller et al. [42]).

[42] shows that ML estimators trained on conjunctive-only featurizations
degrade on workloads with disjunctions, and that featurizing the
disjunction structure recovers most of the loss.  This bench compares each
estimator family on a conjunctive-only workload vs. a 50%-disjunctive
workload (same generator seed), both when the supervised models trained
*with* and *without* disjunctive examples.

Expected shape: data-driven models (bin-union evaluation) degrade little;
supervised models trained conjunctive-only degrade most on the mixed
workload; retraining on mixed examples recovers accuracy.
"""

import numpy as np

from benchmarks.contract import Table, stats_db, stats_executor, table_export
from repro.bench import estimate_workload
from repro.cardest import (
    FSPNEstimator,
    GBDTQueryEstimator,
    HistogramEstimator,
    MSCNEstimator,
)
from repro.cardest.base import q_error_summary
from repro.sql import WorkloadGenerator


def measure(seed=0):
    db, executor = stats_db(), stats_executor()

    def labelled(gen, n):
        queries = gen.workload(n, 1, 3, require_predicate=True)
        return queries, np.array([executor.cardinality(q) for q in queries])

    conj_train, conj_cards = labelled(WorkloadGenerator(db, seed=1 + seed), 350)
    mixed_train, mixed_cards = labelled(WorkloadGenerator(db, seed=1 + seed, or_rate=0.5), 350)
    conj_test, conj_truth = labelled(WorkloadGenerator(db, seed=97 + seed), 100)
    mixed_test, mixed_truth = labelled(WorkloadGenerator(db, seed=97 + seed, or_rate=0.5), 100)

    def gmq(est, queries, truth):
        return q_error_summary(estimate_workload(est, queries), truth)["gmq"]

    rows = []
    # Non-learned / data-driven: one model serves both workloads.
    for name, est in (
        ("histogram", HistogramEstimator(db)),
        ("fspn", FSPNEstimator(db)),
    ):
        conj = gmq(est, conj_test, conj_truth)
        mixed = gmq(est, mixed_test, mixed_truth)
        rows.append((name, conj, mixed, mixed))
    # Supervised: conjunctive-only training vs mixed training.
    for name, factory in (
        ("gbdt", lambda: GBDTQueryEstimator(db)),
        ("mscn", lambda: MSCNEstimator(db, epochs=60)),
    ):
        conj_model = factory().fit(conj_train, conj_cards)
        mixed_model = factory().fit(mixed_train, mixed_cards)
        conj = gmq(conj_model, conj_test, conj_truth)
        naive = gmq(conj_model, mixed_test, mixed_truth)
        aware = gmq(mixed_model, mixed_test, mixed_truth)
        rows.append((name, conj, naive, aware))
    return [
        Table(
            "E12: gmq on conjunctive vs 50%-disjunctive workloads (stats_lite)",
            ["method", "conj-only", "mixed (conj-trained)", "mixed (mixed-trained)"],
            rows,
            note="supervised models need disjunctive training examples; data-driven do not",
        )
    ]


export = table_export(measure)


def test_e12_mixed_predicates():
    (table,) = measure()
    print(table.render())
    results = {r["method"]: r for r in table.records()}
    for name in ("gbdt", "mscn"):
        # Training on the mixed workload must not be worse than pretending
        # disjunctions do not exist.
        naive, aware = results[name]["mixed (conj-trained)"], results[name]["mixed (mixed-trained)"]
        assert aware <= naive * 1.1, name
    # The data-driven model handles disjunctions without any retraining.
    fspn = results["fspn"]
    assert fspn["mixed (conj-trained)"] <= fspn["conj-only"] * 2.5
