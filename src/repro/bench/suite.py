"""Estimator suite builders: construct methods consistently per experiment.

Every benchmark that compares estimators uses these factories so that
hyper-parameters (training epochs, sample sizes) are controlled in one
place per budget level.
"""

from __future__ import annotations

import time

import numpy as np

from repro.cardest import (
    ALECEEstimator,
    CRNEstimator,
    GLPlusEstimator,
    LPCEEstimator,
    PooledMSCNEstimator,
    QuickSelEstimator,
    BayesNetEstimator,
    FactorJoinEstimator,
    FSPNEstimator,
    GBDTQueryEstimator,
    GLUEEstimator,
    HistogramEstimator,
    JoinKDEEstimator,
    KDEEstimator,
    LinearQueryEstimator,
    MLPQueryEstimator,
    MSCNEstimator,
    NaruEstimator,
    NeuroCardEstimator,
    RobustMSCNEstimator,
    SamplingEstimator,
    SPNEstimator,
    UAEEstimator,
)
from repro.sql.query import Query
from repro.storage.catalog import Database

__all__ = [
    "build_estimator",
    "registered_estimators",
    "fit_estimator",
    "estimate_workload",
]

#: supervised estimators whose ``fit`` takes (queries, cards)
_SUPERVISED = {
    "linear", "gbdt", "mlp", "mscn", "pooled_mscn", "robust_mscn",
    "quicksel", "lpce", "alece", "crn", "gl_plus",
}


def _estimator_factories(db: Database, *, full: bool, seed: int) -> dict:
    """Name -> zero-arg constructor; building the dict touches nothing."""
    epochs_nn = 80 if full else 30
    epochs_ar = 12 if full else 5
    return {
        "histogram": lambda: HistogramEstimator(db),
        # Absolute per-table sample sizes (150 rows full / 100 fast), NOT a
        # sampling rate: large enough to be a serious baseline, small enough
        # that its selective-predicate tail blow-ups (the behaviour the
        # benchmark papers report) are visible at this scale.
        "sampling": lambda: SamplingEstimator(db, 150 if full else 100, seed=seed),
        "linear": lambda: LinearQueryEstimator(db),
        "gbdt": lambda: GBDTQueryEstimator(db, seed=seed),
        "mlp": lambda: MLPQueryEstimator(db, epochs=epochs_nn, seed=seed),
        "mscn": lambda: MSCNEstimator(db, epochs=epochs_nn, seed=seed),
        "robust_mscn": lambda: RobustMSCNEstimator(db, epochs=epochs_nn, seed=seed),
        "quicksel": lambda: QuickSelEstimator(db),
        "lpce": lambda: LPCEEstimator(db, seed=seed),
        "pooled_mscn": lambda: PooledMSCNEstimator(db, epochs=epochs_nn, seed=seed),
        "crn": lambda: CRNEstimator(db, epochs=epochs_nn, seed=seed),
        "gl_plus": lambda: GLPlusEstimator(db, epochs=epochs_nn, seed=seed),
        "kde": lambda: KDEEstimator(db, seed=seed),
        "join_kde": lambda: JoinKDEEstimator(db, seed=seed),
        "naru": lambda: NaruEstimator(db, epochs=epochs_ar, seed=seed),
        "neurocard": lambda: NeuroCardEstimator(
            db, epochs=epochs_ar, n_samples=1500 if full else 700, seed=seed
        ),
        "bayesnet": lambda: BayesNetEstimator(db),
        "spn": lambda: SPNEstimator(db, seed=seed),
        "fspn": lambda: FSPNEstimator(db, seed=seed),
        "factorjoin": lambda: FactorJoinEstimator(db, seed=seed),
        "uae": lambda: UAEEstimator(db, epochs=epochs_ar, seed=seed),
        "glue": lambda: GLUEEstimator(db, FSPNEstimator(db, seed=seed)),
        "alece": lambda: ALECEEstimator(db, epochs=epochs_nn * 2, seed=seed),
    }


def registered_estimators() -> list[str]:
    """Every name :func:`build_estimator` accepts, sorted."""
    return sorted(_estimator_factories(None, full=False, seed=0))


def build_estimator(name: str, db: Database, *, budget: str = "fast", seed: int = 0):
    """Construct one estimator by registry-style name.

    ``budget`` is ``"fast"`` (test-suite scale) or ``"full"`` (benchmark
    scale: more epochs / samples).
    """
    if budget not in ("fast", "full"):
        raise ValueError(f"unknown budget {budget!r}; valid: ('fast', 'full')")
    factories = _estimator_factories(db, full=budget == "full", seed=seed)
    if name not in factories:
        raise ValueError(f"unknown estimator {name!r}; valid: {sorted(factories)}")
    return factories[name]()


def fit_estimator(estimator, train_queries: list[Query], train_cards: np.ndarray) -> float:
    """Fit an estimator with whatever supervision it accepts.

    Returns the wall-clock training seconds.  Exactly one branch applies
    per estimator: hybrids expose ``fit_queries`` (query feedback on top of
    a data model), supervised query-driven models expose ``fit`` and are
    listed in ``_SUPERVISED``, and sample-prebuilding data-driven models
    expose ``prebuild``.  Pure data-driven models were already built at
    construction and fall through untouched.
    """
    t0 = time.perf_counter()
    if hasattr(estimator, "fit_queries"):
        estimator.fit_queries(train_queries, train_cards)
    elif getattr(estimator, "name", "") in _SUPERVISED:
        estimator.fit(train_queries, train_cards)
    elif hasattr(estimator, "prebuild"):
        estimator.prebuild(train_queries)
    return time.perf_counter() - t0


def estimate_workload(estimator, queries: list[Query]) -> np.ndarray:
    """Estimates for a whole workload through the batched API.

    Thin wrapper over :func:`repro.core.interfaces.batch_estimate` so every
    benchmark goes through one choke point: estimators with a native
    ``estimate_batch`` answer in one forward pass, everything else falls
    back to a scalar loop with identical results.
    """
    from repro.core.interfaces import batch_estimate

    return batch_estimate(estimator, queries)
