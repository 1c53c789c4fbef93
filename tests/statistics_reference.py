"""The scalar histogram estimator and predicate renderer, kept as the reference.

This is the native estimation path as it stood before the batched one:
:func:`reference_range_selectivity` is ``ColumnStats.range_selectivity``
with its bucket-by-bucket Python loop over numpy scalars, and
:class:`ReferenceTraditionalEstimator` is ``TraditionalCardinalityEstimator``
with no selectivity memo -- every sub-query re-derives every table's
selectivity.  The ``reference_*`` renderers are ``Predicate.__str__``,
``Join.__str__``, ``Query.to_sql``, the text ``Query.template_key`` of
that time (with its :func:`predicate_template`) and ``query_hash``
re-rendering the text on every call.  The live path must return ``==``
selectivities and estimates and equal strings, and the live tuple
template key must identify two queries exactly when the text one does;
``tests/test_estimation_path.py`` asserts that and
``benchmarks/bench_p6_fastpath.py`` uses :class:`ReferenceTraditionalEstimator`
as the baseline.  Do not optimise this file.

Equality selectivity did not change and is read from the live
``ColumnStats.eq_selectivity``, so the oracle's ``eq_ignores_domain``
mutation moves the reference exactly as it moves the live estimator.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.optimizer.statistics import ColumnStats, DatabaseStats
from repro.sql.query import Join, Op, OrPredicate, Predicate, Query
from repro.storage.catalog import Database

__all__ = [
    "ReferenceTraditionalEstimator",
    "predicate_template",
    "reference_join_text",
    "reference_predicate_text",
    "reference_query_hash",
    "reference_range_selectivity",
    "reference_template_key",
    "reference_to_sql",
]


def reference_range_selectivity(
    stats: ColumnStats,
    lo: float,
    hi: float,
    *,
    inclusive_lo: bool = True,
    inclusive_hi: bool = True,
) -> float:
    """``ColumnStats.range_selectivity`` with the per-bucket loop."""
    if stats.n_rows == 0:
        return 0.0
    if lo > hi or (lo == hi and not (inclusive_lo and inclusive_hi)):
        return 0.0

    def point_in_range(p: np.ndarray | float):
        above = (p > lo) | ((p == lo) & inclusive_lo)
        below = (p < hi) | ((p == hi) & inclusive_hi)
        return above & below

    sel = 0.0
    # MCV contribution: exact point masses.
    if stats.mcv_values.size:
        in_range = point_in_range(stats.mcv_values)
        sel += float(stats.mcv_freqs[in_range].sum())
    # Histogram contribution: linear interpolation within buckets.
    bounds = stats.histogram_bounds
    if bounds.size >= 2 and stats.non_mcv_fraction > 0:
        n_bins = bounds.size - 1
        frac = 0.0
        for b in range(n_bins):
            b_lo, b_hi = bounds[b], bounds[b + 1]
            if b_hi < lo or b_lo > hi:
                continue
            if b_hi == b_lo:
                # Degenerate bucket: a point mass at b_lo.  It counts
                # only when that point actually satisfies the (possibly
                # open) interval -- merely touching an excluded
                # endpoint contributes nothing.
                if bool(point_in_range(float(b_lo))):
                    frac += 1.0
                continue
            covered_lo = max(b_lo, lo)
            covered_hi = min(b_hi, hi)
            frac += max(covered_hi - covered_lo, 0.0) / (b_hi - b_lo)
        sel += (frac / n_bins) * stats.non_mcv_fraction
    return min(max(sel, 0.0), 1.0)


class ReferenceTraditionalEstimator:
    """``TraditionalCardinalityEstimator`` with no memo and the loop histogram."""

    def __init__(self, db: Database, stats: DatabaseStats | None = None) -> None:
        self.db = db
        self.stats = stats if stats is not None else DatabaseStats.build(db)

    def predicate_selectivity(self, pred) -> float:
        if isinstance(pred, OrPredicate):
            miss = 1.0
            for part in pred.parts:
                miss *= 1.0 - self.predicate_selectivity(part)
            return 1.0 - miss
        col_stats = self.stats.table(pred.column.table).column(pred.column.column)
        if pred.op is Op.EQ:
            return col_stats.eq_selectivity(float(pred.value))
        if pred.op is Op.IN:
            sel = sum(col_stats.eq_selectivity(float(v)) for v in pred.value)
            return min(sel, 1.0)
        lo, hi, lo_inc, hi_inc = pred.to_bounds()
        return reference_range_selectivity(
            col_stats, lo, hi, inclusive_lo=lo_inc, inclusive_hi=hi_inc
        )

    def table_selectivity(self, query: Query, table: str) -> float:
        sel = 1.0
        for pred in query.predicates_on(table):
            sel *= self.predicate_selectivity(pred)
        return sel

    def estimate(self, query: Query) -> float:
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


# -- text ---------------------------------------------------------------------------


def reference_predicate_text(pred: Predicate | OrPredicate) -> str:
    if isinstance(pred, OrPredicate):
        return "(" + " OR ".join(reference_predicate_text(p) for p in pred.parts) + ")"
    if pred.op is Op.BETWEEN:
        lo, hi = pred.value
        return f"{pred.column} BETWEEN {lo} AND {hi}"
    if pred.op is Op.IN:
        vals = ", ".join(str(v) for v in sorted(pred.value))
        return f"{pred.column} IN ({vals})"
    return f"{pred.column} {pred.op.value} {pred.value}"


def reference_join_text(join: Join) -> str:
    return f"{join.left} = {join.right}"


def reference_to_sql(query: Query) -> str:
    where = [reference_join_text(j) for j in query.joins] + [
        reference_predicate_text(p) for p in query.predicates
    ]
    sql = f"SELECT COUNT(*) FROM {', '.join(query.tables)}"
    if where:
        sql += " WHERE " + " AND ".join(where)
    return sql


def predicate_template(pred: Predicate | OrPredicate) -> str:
    """Render a predicate with its literals replaced by ``?`` placeholders.

    Structure that changes plan shape is preserved: BETWEEN keeps both
    placeholders, IN keeps its arity (``IN (?, ?, ?)``), OR parts are
    templated individually and sorted so part order never depends on the
    literals either.
    """
    if pred.op is Op.OR:
        return "(" + " OR ".join(sorted(predicate_template(p) for p in pred.parts)) + ")"
    if pred.op is Op.BETWEEN:
        return f"{pred.column} BETWEEN ? AND ?"
    if pred.op is Op.IN:
        marks = ", ".join("?" for _ in pred.value)  # type: ignore[arg-type]
        return f"{pred.column} IN ({marks})"
    return f"{pred.column} {pred.op.value} ?"


def reference_template_key(query: Query) -> str:
    """``Query.template_key`` as it was: the text with literals as ``?``,
    predicate templates sorted as text.  The tuple key must identify two
    queries exactly when this text does."""
    where = [reference_join_text(j) for j in query.joins] + sorted(
        predicate_template(p) for p in query.predicates
    )
    key = f"SELECT COUNT(*) FROM {', '.join(query.tables)}"
    if where:
        key += " WHERE " + " AND ".join(where)
    return key


def reference_query_hash(query: Query) -> str:
    return hashlib.sha256(reference_to_sql(query).encode()).hexdigest()[:12]
