"""The traditional (PostgreSQL-style) cardinality estimator.

Per-table selectivities come from MCV lists and equi-depth histograms under
the attribute-independence assumption; join selectivities use the classic
``1 / max(ndv_left, ndv_right)`` rule with the containment assumption.
These are exactly the assumptions whose failure on correlated data motivates
every learned estimator in the survey -- this estimator is the baseline all
experiments compare against.
"""

from __future__ import annotations

import numpy as np

from repro.core.interfaces import CardinalityEstimator
from repro.optimizer.statistics import DatabaseStats
from repro.sql.query import Op, OrPredicate, Query
from repro.storage.catalog import Database

__all__ = ["TraditionalCardinalityEstimator"]


class TraditionalCardinalityEstimator(CardinalityEstimator):
    """Histogram + independence estimator implementing
    :class:`repro.core.CardinalityEstimator`; its ``estimates_version``
    stays 0 (cache keys pair it with the database's ``data_version``)."""

    name = "traditional"

    def __init__(self, db: Database, stats: DatabaseStats | None = None) -> None:
        self.db = db
        self.stats = stats if stats is not None else DatabaseStats.build(db)

    # -- predicate selectivity ------------------------------------------------

    def predicate_selectivity(self, pred) -> float:
        if isinstance(pred, OrPredicate):
            # Disjunction under independence of the parts' complements:
            # sel = 1 - prod(1 - sel_i)  (exact for disjoint parts, the
            # usual optimizer upper-ish bound otherwise).
            miss = 1.0
            for part in pred.parts:
                miss *= 1.0 - self.predicate_selectivity(part)
            return 1.0 - miss
        col_stats = self.stats.table(pred.column.table).column(pred.column.column)
        if pred.op is Op.EQ:
            return col_stats.eq_selectivity(float(pred.value))  # type: ignore[arg-type]
        if pred.op is Op.IN:
            sel = sum(
                col_stats.eq_selectivity(float(v))
                for v in pred.value  # type: ignore[union-attr]
            )
            return min(sel, 1.0)
        lo, hi, lo_inc, hi_inc = pred.to_bounds()
        return col_stats.range_selectivity(
            lo, hi, inclusive_lo=lo_inc, inclusive_hi=hi_inc
        )

    def table_selectivity(self, query: Query, table: str) -> float:
        """Combined selectivity of all predicates on ``table`` (independence)."""
        preds = query.predicates_on(table)
        memo = self._selectivities
        if memo is not None:
            sel = memo.get((table, preds))
            if sel is not None:
                return sel
        sel = 1.0
        for pred in preds:
            sel *= self.predicate_selectivity(pred)
        if memo is not None:
            memo[table, preds] = sel
        return sel

    # -- cardinality ----------------------------------------------------------

    #: ``(table, predicates on it) -> selectivity`` while an
    #: :meth:`estimate_batch` call runs, else None
    _selectivities: dict | None = None

    def estimate_batch(self, queries: list[Query]) -> np.ndarray:
        """``[self.estimate(q) for q in queries]``, each table's selectivity
        derived once per distinct predicate set.

        The DP asks for every connected subset of a query in one batch, so
        a table's predicates recur in every subset that contains it.  The
        memo lives for this call only: statistics refreshed between two
        batches are read by the second, and there is nothing to invalidate.
        Deleting it afterwards leaves ``vars(self)`` as it was, so
        ``model_fingerprint`` cannot tell whether a batch ever ran.
        """
        self._selectivities = {}
        try:
            return np.array([self.estimate(q) for q in queries], dtype=float)
        finally:
            del self._selectivities

    def estimate(self, query: Query) -> float:
        """Estimated COUNT(*) of the (sub-)query.

        cardinality = prod_t |t| * sel(t)  *  prod_join 1/max(ndv_l, ndv_r)
        """
        card = 1.0
        for table in query.tables:
            n_rows = self.stats.table(table).n_rows
            card *= n_rows * self.table_selectivity(query, table)
        for join in query.joins:
            left = self.stats.table(join.left.table).column(join.left.column)
            right = self.stats.table(join.right.table).column(join.right.column)
            ndv = max(left.n_distinct, right.n_distinct, 1)
            card /= ndv
        return max(card, 0.0)
