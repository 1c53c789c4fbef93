"""Pessimistic (upper-bound) cardinality estimation.

Learned estimators fail silently: under drift or out-of-distribution
queries they *underestimate*, and underestimation is what makes the
planner pick catastrophic join orders ("Are We Ready For Learned
Cardinality Estimation?").  The defence studied by the pessimistic
line of work (MOLP/bound sketches, AGM-style worst-case bounds) is an
estimator that is allowed to be loose but never low: a certified
``bound >= true_count`` on every supported query.  This module provides
two such estimators as first-class ``CardinalityEstimator``s, usable
anywhere a point estimator is -- inside :class:`repro.optimizer.Optimizer`
(the risk-bounded planner mode costs plans under these bounds), inside
the :class:`repro.faults.BoundGuard` (a learned estimate exceeding its
certified bound trips the breaker), and under the
:class:`repro.optimizer.CardinalityCache` (they version like every other
estimator).

Soundness argument (see DESIGN.md §14 for the full derivation):

- **Per-predicate bounds.**  A :class:`BoundSketch` stores, per column,
  the exact counts of the ``top_k`` most frequent values, the maximum
  count among the remaining values (``max_rest``), and equi-width bucket
  *counts* over the full value range.  Equality bounds answer the exact
  top-k count, or ``max_rest`` for any other in-domain literal, or 0
  outside the domain; range bounds sum the counts of every bucket whose
  closed hull intersects the predicate's hull -- an overcount, never an
  undercount.  Conjunctions take the minimum over per-predicate bounds
  (``|σ_{p∧q}T| <= min(|σ_p T|, |σ_q T|)``), so the per-table bound
  ``tbound(T)`` is sound.
- **Join composition.**  Growing the joined set one table at a time from
  a root: every row of the current partial join matches at most
  ``maxfreq(C.c)`` rows of a newly attached table ``C`` (its join
  column's highest value frequency, from the unfiltered sketch -- filters
  only reduce it) and at most ``tbound(C)`` rows in total, so each step
  multiplies by ``min(maxfreq, tbound)``.  Extra (cycle-closing) join
  edges only filter the result further, so composing along any spanning
  order stays sound; we take the minimum over all root choices and cap
  with the product of per-table filtered bounds.
- **MCV pair refinement** (:class:`MCVJoinBoundEstimator` only).  For the
  first join edge out of the root, the top-k sketches of both sides
  compose value-by-value: ``Σ_{v∈topk_A} cnt_A(v)·eqbound_B(v) +
  rest_rows_A·maxfreq_B`` bounds the unfiltered pair join exactly
  (every non-top-k row contributes at most ``maxfreq_B`` matches), and
  filtered joins are subsets of unfiltered ones.

Staleness is deliberate: sketches snapshot the data at :meth:`refresh`
time, so after unrefreshed drift the "bound" can genuinely be violated
by observed counts -- exactly the condition the serving-side
:class:`~repro.faults.BoundGuard` watches for via the online auditor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cardest.base import BaseCardinalityEstimator
from repro.sql.query import Op, OrPredicate, Query

__all__ = [
    "BoundSketch",
    "BoundSketchEstimator",
    "MCVJoinBoundEstimator",
    "AGMSketchBoundEstimator",
]


@dataclass
class BoundSketch:
    """Per-column frequency/bucket sketch answering *upper bounds*.

    Unlike :class:`repro.optimizer.statistics.ColumnStats` (fractions,
    interpolation -- a point estimator's tool), everything here is an
    integer row count and every answer overcounts: bucket sums count the
    whole bucket whenever it touches the range, unknown in-domain
    equality literals answer the worst non-top-k frequency.
    """

    n_rows: int
    vmin: float
    vmax: float
    #: exact counts of the top-k most frequent values
    topk: dict[float, int]
    #: rows not covered by the top-k values
    rest_rows: int
    #: max count among non-top-k values (0 when top-k covers everything)
    max_rest: int
    #: equi-width bucket edges/counts over [vmin, vmax]; None when degenerate
    edges: np.ndarray | None = field(repr=False, default=None)
    bucket_counts: np.ndarray | None = field(repr=False, default=None)

    @classmethod
    def build(cls, values: np.ndarray) -> "BoundSketch":
        """Sketch a column: its 16 most frequent values exactly, the rest
        under 64 equi-width buckets."""
        top_k, n_buckets = 16, 64
        values = np.asarray(values)
        n = int(values.shape[0])
        if n == 0:
            return cls(0, 0.0, 0.0, {}, 0, 0)
        uniq, counts = np.unique(values, return_counts=True)
        # Highest count first, ties broken by value: deterministic top-k.
        order = np.lexsort((uniq, -counts))
        top = order[:top_k]
        rest = order[top_k:]
        topk = {float(uniq[i]): int(counts[i]) for i in top}
        max_rest = int(counts[rest].max()) if rest.size else 0
        vmin, vmax = float(uniq[0]), float(uniq[-1])
        edges = bucket_counts = None
        if vmax > vmin:
            edges = np.linspace(vmin, vmax, n_buckets + 1)
            bucket_counts, _ = np.histogram(values.astype(float), bins=edges)
        return cls(
            n_rows=n,
            vmin=vmin,
            vmax=vmax,
            topk=topk,
            rest_rows=n - sum(topk.values()),
            max_rest=max_rest,
            edges=edges,
            bucket_counts=bucket_counts,
        )

    @property
    def max_freq(self) -> int:
        """Highest frequency of any single value (the degree bound)."""
        return max(self.topk.values()) if self.topk else 0

    def eq_bound(self, value) -> float:
        """Upper bound on ``count(column == value)``."""
        v = float(value)
        cnt = self.topk.get(v)
        if cnt is not None:
            return float(cnt)
        if self.n_rows == 0 or v < self.vmin or v > self.vmax:
            return 0.0
        return float(self.max_rest)

    def range_bound(self, lo: float, hi: float) -> float:
        """Upper bound on ``count(lo <= column <= hi)`` (closed hull).

        Open endpoints simply reuse the closed hull -- a further
        overcount, never an undercount.
        """
        if self.n_rows == 0 or lo > hi or hi < self.vmin or lo > self.vmax:
            return 0.0
        if self.edges is None:  # single-value column inside the hull
            return float(self.n_rows)
        touched = (self.edges[:-1] <= hi) & (self.edges[1:] >= lo)
        return float(self.bucket_counts[touched].sum())

    def predicate_bound(self, pred) -> float:
        """Upper bound on rows matching one predicate of any kind."""
        if isinstance(pred, OrPredicate):
            total = sum(self.predicate_bound(p) for p in pred.parts)
            return min(total, float(self.n_rows))
        if pred.op is Op.EQ:
            return self.eq_bound(pred.value)
        if pred.op is Op.IN:
            total = sum(self.eq_bound(v) for v in pred.value)
            return min(total, float(self.n_rows))
        lo, hi, _, _ = pred.to_bounds()
        return self.range_bound(lo, hi)


class BoundSketchEstimator(BaseCardinalityEstimator):
    """Shared machinery of the pessimistic estimators.

    Builds one :class:`BoundSketch` per column at construction (and on
    every :meth:`refresh`, which bumps ``estimates_version`` so the
    :class:`repro.optimizer.CardinalityCache` never serves stale bounds
    across a rebuild).  ``estimate``/``estimate_batch`` inherit the base
    class's cross-product clamp, which preserves soundness: no SPJ result
    exceeds the unfiltered cross product.
    """

    name = "bound_sketch"
    #: subclass switch: refine the first join edge with top-k composition
    use_mcv_pairs = False

    def __init__(self, db) -> None:
        super().__init__(db)
        self._sketches: dict[str, dict[str, BoundSketch]] = {}
        self._sketch_rows: dict[str, int] = {}
        self._refresh()

    def _refresh(self) -> None:
        """Rebuild every sketch from the current data (cheap ANALYZE)."""
        for tname in self.db.table_names:
            table = self.db.table(tname)
            self._sketch_rows[tname] = table.n_rows
            self._sketches[tname] = {
                cname: BoundSketch.build(table.values(cname))
                for cname in table.column_names
            }

    # -- per-table and per-edge bounds ---------------------------------------------

    def _table_bound(self, query: Query, table: str) -> float:
        """Upper bound on the table's filtered row count (min over preds)."""
        sketches = self._sketches[table]
        bound = float(self._sketch_rows[table])
        for pred in query.predicates_on(table):
            sketch = sketches.get(pred.column.column)
            if sketch is not None:
                bound = min(bound, sketch.predicate_bound(pred))
        return bound

    def _max_freq(self, table: str, column: str) -> float:
        return float(self._sketches[table][column].max_freq)

    def _mcv_pair(self, ta: str, ca: str, tb: str, cb: str) -> float:
        """Top-k composition bound on the unfiltered pair join A.ca = B.cb."""
        sa = self._sketches[ta][ca]
        sb = self._sketches[tb][cb]

        def one_way(sx: BoundSketch, sy: BoundSketch) -> float:
            total = 0.0
            for v, cnt in sx.topk.items():
                total += cnt * sy.eq_bound(v)
            return total + sx.rest_rows * sy.max_freq

        return min(one_way(sa, sb), one_way(sb, sa))

    def _linking(
        self, query: Query, cand: str, joined: set[str]
    ) -> list[tuple[str, str, str]]:
        """Join edges attaching ``cand`` to the joined set, as
        ``(cand_column, joined_table, joined_column)`` triples."""
        out: list[tuple[str, str, str]] = []
        for j in query.joins_on(cand):
            if j.left.table == cand and j.right.table in joined:
                out.append((j.left.column, j.right.table, j.right.column))
            elif j.right.table == cand and j.left.table in joined:
                out.append((j.right.column, j.left.table, j.left.column))
        return out

    # -- join composition -----------------------------------------------------------

    def _grow_from(
        self, query: Query, root: str, tbounds: dict[str, float]
    ) -> float | None:
        """Degree-composition bound growing a spanning order from ``root``."""
        bound = tbounds[root]
        joined = {root}
        remaining = [t for t in query.tables if t != root]
        while remaining:
            candidates: list[tuple[float, str]] = []
            for cand in remaining:
                links = self._linking(query, cand, joined)
                if not links:
                    continue
                deg = min(self._max_freq(cand, col) for col, _, _ in links)
                step = bound * min(deg, tbounds[cand])
                if self.use_mcv_pairs and len(joined) == 1:
                    pair = min(
                        self._mcv_pair(ot, oc, cand, col)
                        for col, ot, oc in links
                    )
                    step = min(step, pair)
                candidates.append((step, cand))
            if not candidates:
                return None  # disconnected: caller keeps the product cap
            step, cand = min(candidates)
            bound = step
            joined.add(cand)
            remaining.remove(cand)
        return bound

    def _estimate(self, query: Query) -> float:
        tbounds = {t: self._table_bound(query, t) for t in query.tables}
        if query.n_tables == 1:
            return tbounds[query.tables[0]]
        # The product of per-table filtered bounds is itself sound (every
        # join is a subset of the filtered cross product) and caps the
        # degree compositions below.
        best = 1.0
        for t in query.tables:
            best *= tbounds[t]
        for root in query.tables:
            grown = self._grow_from(query, root, tbounds)
            if grown is not None:
                best = min(best, grown)
        return best


class MCVJoinBoundEstimator(BoundSketchEstimator):
    """MCV-frequency join bound: top-k sketches composed across join
    equivalence classes, refined per-value on the first join edge."""

    name = "mcv_bound"
    use_mcv_pairs = True


class AGMSketchBoundEstimator(BoundSketchEstimator):
    """AGM-style cross-product/degree bound: the minimum over the filtered
    cross product and every spanning-order degree factorization, with no
    per-value refinement -- cheaper than :class:`MCVJoinBoundEstimator`,
    with the same soundness guarantee.  Neither bound dominates: the two
    agree on every connected sub-query of stats_lite and imdb_lite
    workloads, but on generated schemas they differ on about 0.3% of
    sub-queries, and on a few of those (3-table, true count 0) the MCV
    bound is the looser -- its refined first step is smaller, and the
    greedy growth from it compounds past this estimator's order."""

    name = "agm_bound"
    use_mcv_pairs = False
