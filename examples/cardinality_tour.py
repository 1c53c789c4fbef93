"""A tour of the learned cardinality estimators (paper Table 1, live).

Trains/builds one representative of each family on the STATS-style
database, compares their q-errors on a held-out workload, demonstrates
uncertainty intervals (Fauce-style ensembles) and the AutoCE model
advisor's recommendation.

Run:  python examples/cardinality_tour.py
"""

import numpy as np

from repro.bench import render_table
from repro.cardest import (
    BayesNetEstimator,
    EnsembleEstimator,
    FactorJoinEstimator,
    FSPNEstimator,
    GBDTQueryEstimator,
    HistogramEstimator,
    MLPQueryEstimator,
    MSCNEstimator,
    NaruEstimator,
    SamplingEstimator,
)
from repro.cardest.advisor import AutoCE
from repro.cardest.base import q_error_summary
from repro.engine import CardinalityExecutor
from repro.sql import WorkloadGenerator
from repro.storage import make_stats_lite, make_tpch_lite


def main() -> None:
    db = make_stats_lite(scale=0.5, seed=0)
    executor = CardinalityExecutor(db)

    # Training workload: executed once to collect true cardinalities
    # (what PilotScope's data-collection phase does).
    train_gen = WorkloadGenerator(db, seed=1)
    train_q = train_gen.workload(300, 1, 4, require_predicate=True)
    train_c = np.array([executor.cardinality(q) for q in train_q])

    test_gen = WorkloadGenerator(db, seed=97)
    test_q = test_gen.workload(80, 1, 4, require_predicate=True)
    test_c = np.array([executor.cardinality(q) for q in test_q])

    estimators = {
        "histogram (native)": HistogramEstimator(db),
        "sampling": SamplingEstimator(db, 150),
        "gbdt [9,10]": GBDTQueryEstimator(db).fit(train_q, train_c),
        "mlp [32]": MLPQueryEstimator(db, epochs=60).fit(train_q, train_c),
        "mscn [23]": MSCNEstimator(db, epochs=50).fit(train_q, train_c),
        "naru [71]": NaruEstimator(db, epochs=8),
        "bayesnet [57,65]": BayesNetEstimator(db),
        "fspn [81]": FSPNEstimator(db),
        "factorjoin [64]": FactorJoinEstimator(db),
    }
    rows = []
    for name, est in estimators.items():
        preds = np.array([est.estimate(q) for q in test_q])
        s = q_error_summary(preds, test_c)
        rows.append((name, s["p50"], s["p90"], s["max"], s["gmq"]))
    print(render_table(
        "q-error on 80 held-out STATS-style queries",
        ["estimator", "p50", "p90", "max", "gmq"],
        rows,
    ))

    # Uncertainty: a Fauce-style ensemble of differently-seeded MLPs.
    members = [
        MLPQueryEstimator(db, epochs=40, seed=s).fit(train_q, train_c)
        for s in range(4)
    ]
    ensemble = EnsembleEstimator(db, members)
    q = test_q[0]
    lo, hi = ensemble.predict_interval(q)
    print(f"\nuncertainty demo on: {q.to_sql()}")
    print(f"  point estimate {ensemble.estimate(q):.0f}, "
          f"95% interval [{lo:.0f}, {hi:.0f}], "
          f"true {executor.cardinality(q)}")

    # Model advisor: profile two very different databases, then ask for a
    # recommendation on a third.
    advisor = AutoCE()
    advisor.record(db, "fspn")  # correlated, skewed -> structure models
    advisor.record(make_tpch_lite(), "histogram")  # uniform -> cheap wins
    new_db = make_stats_lite(scale=0.7, seed=42)
    print(f"\nAutoCE recommends for a new STATS-like database: "
          f"{advisor.recommend(new_db)!r}")


if __name__ == "__main__":
    main()
