"""Estimator suite: build, fit and run the method table's estimators.

Every benchmark that compares estimators builds them here, by the ``key``
column of :mod:`repro.core.registry` -- the one place a name maps to a
class and to its constructor arguments (training epochs, sample sizes) per
budget level -- and trains them through the one life-cycle of
:class:`repro.cardest.base.BaseCardinalityEstimator`.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.registry import SEED, Keyed, registry
from repro.sql.query import Query
from repro.storage.catalog import Database

__all__ = [
    "build_estimator",
    "fit_estimator",
    "estimate_workload",
]


def build_estimator(name: str, db: Database, *, budget: str = "fast", seed: int = 0):
    """Construct one estimator by the ``key`` of its method-table row.

    ``budget`` is ``"fast"`` (test-suite scale) or ``"full"`` (benchmark
    scale: more epochs / samples).
    """
    if budget not in ("fast", "full"):
        raise ValueError(f"unknown budget {budget!r}; valid: ('fast', 'full')")
    rows = {m.key: m for m in registry("cardinality") if m.key}
    if name not in rows:
        raise ValueError(f"unknown estimator {name!r}; valid: {sorted(rows)}")

    def argument(value):
        if value is SEED:
            return seed
        if isinstance(value, Keyed):
            return build_estimator(value.key, db, budget=budget, seed=seed)
        return value[budget] if isinstance(value, dict) else value

    row = rows[name]
    return row.resolve()(db, **{k: argument(v) for k, v in row.args.items()})


def fit_estimator(estimator, train_queries: list[Query], train_cards: np.ndarray) -> float:
    """Wall-clock seconds of ``estimator.fit(train_queries, train_cards)``."""
    t0 = time.perf_counter()
    estimator.fit(train_queries, train_cards)
    return time.perf_counter() - t0


def estimate_workload(estimator, queries: list[Query]) -> np.ndarray:
    """Estimates for a whole workload through the batched API.

    Thin wrapper over :func:`repro.core.interfaces.batch_estimate` so every
    benchmark goes through one choke point: model-backed estimators answer
    in one forward pass, the rest through their scalar loop with identical
    results.
    """
    from repro.core.interfaces import batch_estimate

    return batch_estimate(estimator, queries)
