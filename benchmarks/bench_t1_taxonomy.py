"""T1: regenerate the paper's Table 1 (learned cardinality estimators) and run it.

The only numbered exhibit in the tutorial is its taxonomy table.  This
bench renders it back from the method table and, for every row that has a
``key``, builds the estimator at the ``fast`` budget, fits it on the shared
training workload and scores it on the test workload -- so a listed
family is backed by an implementation that answers, not by a class that
imports.  Rows without a key (no constructor from ``(db, budget, seed)``
yet) print "—": they are the backlog of ROADMAP item 7.
"""

import numpy as np

from benchmarks.contract import Table, stats_db, stats_test, stats_train, table_export
from repro.bench import build_estimator, estimate_workload
from repro.cardest.base import q_error_summary
from repro.core import registry
from repro.core.registry import cardinality_estimator_rows


def measure(seed=0):
    train_q, train_c = stats_train(seed)
    test_q, test_c = stats_test(seed)
    methods = registry("cardinality")
    # key -> q-error summary; rows sharing a key are built once
    measured = {}
    for key in dict.fromkeys(m.key for m in methods if m.key):
        est = build_estimator(key, stats_db(), budget="fast", seed=seed).fit(train_q, train_c)
        preds = estimate_workload(est, test_q)
        assert np.all(np.isfinite(preds)), key
        measured[key] = q_error_summary(preds, test_c)
    return [
        Table(
            "T1 / paper Table 1: learned cardinality estimators (regenerated, fast budget)",
            ["Category", "Method", "Applied ML Technique", "Ref", "Implementation",
             "key", "gmq", "p90"],
            [
                (
                    m.category, m.method, m.technique, m.paper_ref,
                    m.resolve().__name__,  # every row must be backed by real code
                    m.key or "—",
                    measured[m.key]["gmq"] if m.key else "—",
                    measured[m.key]["p90"] if m.key else "—",
                )
                for m in methods
            ],
            note="'—': not buildable from (db, budget, seed) yet, so not measured",
        ),
        Table(
            "T1b: remaining surveyed components (cost models, join order, end-to-end, regression)",
            ["Component", "Method", "Technique", "Ref", "Implementation"],
            [
                (m.component, m.method, m.technique, m.paper_ref, m.resolve().__name__)
                for m in registry()
                if m.component != "cardinality"
            ],
        ),
    ]


export = table_export(measure)


def test_t1_taxonomy_table():
    taxonomy, other = measure()
    print(taxonomy.render())
    # The paper's three top-level classes are all populated.
    categories = {r["Category"] for r in taxonomy.records()}
    assert categories == {category for category, _, _ in cardinality_estimator_rows()}
    assert any(c.startswith("Query-Driven") for c in categories)
    assert any(c.startswith("Data-Driven") for c in categories)
    assert any(c.startswith("Hybrid") for c in categories)
    assert len(taxonomy.rows) >= 18
    print(other.render())
