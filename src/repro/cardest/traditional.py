"""Traditional (non-learned) estimator baselines.

- :class:`HistogramEstimator`: the PostgreSQL-style histogram/MCV +
  independence estimator (thin adapter over
  :class:`repro.optimizer.TraditionalCardinalityEstimator` so it slots into
  the estimator-comparison experiments under a common base class);
- :class:`SamplingEstimator`: independent Bernoulli samples per table;
  queries are answered exactly on the sampled sub-database and scaled by
  the inverse sampling fractions.  Unbiased but with the well-known
  variance blow-up on selective predicates and multi-way joins.

Neither has a featurization or model forward pass to amortize across a
workload.  :class:`HistogramEstimator` still batches: its inner
``estimate_batch`` derives each table's selectivity once per distinct
predicate set in the batch, which the DP's connected subsets of one query
share.  :class:`SamplingEstimator` executes every query on its sample and
takes the base-class scalar loop.
"""

from __future__ import annotations

import numpy as np

from repro.cardest.base import BaseCardinalityEstimator
from repro.engine.executor import CardinalityExecutor
from repro.optimizer.statistics import DatabaseStats
from repro.optimizer.traditional import TraditionalCardinalityEstimator
from repro.sql.query import Query
from repro.storage.catalog import Database
from repro.storage.table import Column, Table

__all__ = ["HistogramEstimator", "SamplingEstimator"]


class HistogramEstimator(BaseCardinalityEstimator):
    """Histogram + independence baseline (the native optimizer's estimator)."""

    name = "histogram"

    def __init__(self, db: Database, stats: DatabaseStats | None = None) -> None:
        super().__init__(db)
        self._inner = TraditionalCardinalityEstimator(db, stats)

    def _refresh(self) -> None:
        """Re-ANALYZE into statistics of its own (a ``stats`` passed in may be shared)."""
        self._inner = TraditionalCardinalityEstimator(self.db)

    def _estimate(self, query: Query) -> float:
        return self._inner.estimate(query)

    def _estimate_batch(self, queries: list[Query]) -> np.ndarray:
        return self._inner.estimate_batch(queries)


class SamplingEstimator(BaseCardinalityEstimator):
    """Uniform Bernoulli sampling baseline.

    Each table is sampled once at construction with rate
    ``min(1, sample_rows / n_rows)``; estimates run the exact executor on
    the sampled tables and scale by the product of inverse rates of the
    *touched* tables.
    """

    name = "sampling"

    def __init__(
        self, db: Database, sample_rows: int = 500, seed: int = 0
    ) -> None:
        super().__init__(db)
        rng = np.random.default_rng(seed)
        tables = []
        self._rates: dict[str, float] = {}
        for name, table in db.tables.items():
            rate = min(1.0, sample_rows / max(table.n_rows, 1))
            take = rng.random(table.n_rows) < rate
            if not take.any() and table.n_rows > 0:
                take[rng.integers(table.n_rows)] = True
            actual_rate = take.sum() / max(table.n_rows, 1)
            self._rates[name] = float(actual_rate) if actual_rate > 0 else 1.0
            cols = [
                # Key flags are dropped: a sample of a key column is still
                # unique, but appends during drift tests could collide.
                Column(c, table.values(c)[take], is_key=False)
                for c in table.column_names
            ]
            tables.append(Table(name, cols))
        self._sample_db = Database(db.name + "_sample", tables, list(db.joins))
        self._executor = CardinalityExecutor(self._sample_db)

    def _estimate(self, query: Query) -> float:
        sampled = self._executor.cardinality(query)
        scale = 1.0
        for t in query.tables:
            scale /= self._rates[t]
        return sampled * scale
