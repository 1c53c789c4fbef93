"""Empirical checks of the theory works the tutorial cites.

Two learnability/uncertainty utilities:

- :func:`pac_learning_curve` -- Hu et al. [19] prove selectivity functions
  of bounded-VC range spaces are PAC-learnable: the expected error of an
  ERM learner shrinks as roughly ``O~(sqrt(1/n))`` in the sample count.
  This helper runs the experiment: it fits a fresh estimator per training
  size and returns the error curve so tests/benchmarks can verify the
  monotone-shrinking shape.

- :func:`interval_coverage` -- Thirumuruganathan et al. [55] evaluate
  prediction intervals for learned cardinality estimates.  This helper
  measures empirical coverage of an ensemble's intervals against true
  cardinalities (a calibrated 95% interval should cover ~95%).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.cardest.advisor import EnsembleEstimator
from repro.cardest.base import q_error
from repro.engine.executor import CardinalityExecutor
from repro.sql.query import Query
from repro.storage.catalog import Database

__all__ = ["pac_learning_curve", "interval_coverage"]


def pac_learning_curve(
    db: Database,
    estimator_factory: Callable[[], object],
    train_queries: Sequence[Query],
    test_queries: Sequence[Query],
    sample_sizes: Sequence[int],
) -> list[tuple[int, float]]:
    """Median q-error on held-out queries per training-set size.

    ``estimator_factory()`` must build a fresh supervised estimator with a
    ``fit(queries, cards)`` method.  Returns ``[(n, median_q_error), ...]``
    in the given size order.  True cardinalities are computed exactly.
    """
    if not sample_sizes:
        raise ValueError("need at least one sample size")
    if max(sample_sizes) > len(train_queries):
        raise ValueError("sample size exceeds available training queries")
    executor = CardinalityExecutor(db)
    train_cards = np.array([executor.cardinality(q) for q in train_queries])
    test_cards = [executor.cardinality(q) for q in test_queries]
    curve = []
    for n in sample_sizes:
        est = estimator_factory()
        est.fit(list(train_queries[:n]), train_cards[:n])
        errs = [
            q_error(est.estimate(q), c) for q, c in zip(test_queries, test_cards)
        ]
        curve.append((int(n), float(np.median(errs))))
    return curve


def interval_coverage(
    ensemble: EnsembleEstimator,
    queries: Sequence[Query],
    true_cards: Sequence[float],
) -> float:
    """Fraction of true cardinalities inside the ensemble's intervals."""
    if len(queries) != len(true_cards):
        raise ValueError("queries and true_cards must align")
    if not queries:
        raise ValueError("empty evaluation set")
    hits = 0
    for q, truth in zip(queries, true_cards):
        lo, hi = ensemble.predict_interval(q)
        if lo <= truth <= hi:
            hits += 1
    return hits / len(queries)
