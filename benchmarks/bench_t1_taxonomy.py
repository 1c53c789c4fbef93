"""T1: regenerate the paper's Table 1 (learned cardinality estimators) and run it.

The only numbered exhibit in the tutorial is its taxonomy table.  This
bench renders it back from the method table and, for every row that has a
``key``, builds the estimator at the ``fast`` budget, fits it on the shared
training workload and scores it on the test workload -- so a listed
family is backed by an implementation that answers, not by a class that
imports.  Rows without a key (no constructor from ``(db, budget, seed)``
yet) print "—": they are the backlog of ROADMAP item 3(e).
"""

import numpy as np

from repro.bench import build_estimator, estimate_workload, render_table
from repro.cardest.base import q_error_summary
from repro.core import registry
from repro.core.registry import cardinality_estimator_rows


def test_t1_taxonomy_table(benchmark, stats_db, stats_train, stats_test):
    train_q, train_c = stats_train
    test_q, test_c = stats_test
    methods = registry("cardinality")

    def sweep():
        """key -> q-error summary; rows sharing a key are built once."""
        measured = {}
        for key in dict.fromkeys(m.key for m in methods if m.key):
            est = build_estimator(key, stats_db, budget="fast").fit(train_q, train_c)
            preds = estimate_workload(est, test_q)
            assert np.all(np.isfinite(preds)), key
            measured[key] = q_error_summary(preds, test_c)
        return measured

    measured = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [
        (
            m.category, m.method, m.technique, m.paper_ref,
            m.resolve().__name__,  # every row must be backed by real code
            m.key or "—",
            measured[m.key]["gmq"] if m.key else "—",
            measured[m.key]["p90"] if m.key else "—",
        )
        for m in methods
    ]
    print(
        render_table(
            "T1 / paper Table 1: learned cardinality estimators (regenerated, fast budget)",
            ["Category", "Method", "Applied ML Technique", "Ref", "Implementation",
             "key", "gmq", "p90"],
            rows,
            note="'—': not buildable from (db, budget, seed) yet, so not measured",
        )
    )
    # The paper's three top-level classes are all populated.
    categories = {r[0] for r in rows}
    assert any(c.startswith("Query-Driven") for c in categories)
    assert any(c.startswith("Data-Driven") for c in categories)
    assert any(c.startswith("Hybrid") for c in categories)
    assert len(rows) >= 18

    other = render_table(
        "T1b: remaining surveyed components (cost models, join order, end-to-end, regression)",
        ["Component", "Method", "Technique", "Ref", "Implementation"],
        [
            (m.component, m.method, m.technique, m.paper_ref, m.resolve().__name__)
            for m in registry()
            if m.component != "cardinality"
        ],
    )
    print(other)
