"""Base class and shared utilities for cardinality estimators.

:class:`BaseCardinalityEstimator` owns the life-cycle every bench, driver
and drift loop runs -- ``fit`` / ``refresh`` and the version bump.
"""

from __future__ import annotations

import numpy as np

from repro.sql.query import Query
from repro.storage.catalog import Database

__all__ = [
    "BaseCardinalityEstimator",
    "cross_product_rows",
    "q_error",
    "q_error_summary",
    "sanitize_bound",
    "sanitize_estimate",
    "sanitize_estimates",
]

#: Stand-in upper bound when the caller cannot provide one: large enough to
#: never clip a legitimate estimate, small enough to keep cost arithmetic
#: finite.  Shared by the scalar and batched sanitizers.
NONFINITE_FALLBACK = 1e30


def cross_product_rows(db: Database, query: Query) -> float:
    """Rows of the unfiltered cross product of ``query``'s tables (empty
    tables count as one row): no valid SPJ result exceeds it."""
    upper = 1.0
    for t in query.tables:
        upper *= max(db.table(t).n_rows, 1)
    return upper


def sanitize_estimate(value: float, upper: float | None = None) -> float:
    """The one place pathological cardinality estimates become safe numbers.

    NaN and +/-Inf map to ``upper`` (the caller's no-valid-result-exceeds-it
    bound) or :data:`NONFINITE_FALLBACK` when no bound is known; negative
    values clamp to 0; finite values clamp into ``[0, upper]``.  Every code
    path that consumes raw estimator output -- the estimator base class, the
    plan coster, the cardinality-injection driver -- routes through here, so
    a broken learned model can skew plans but can never poison cost
    arithmetic with non-finite values.
    """
    value = float(value)
    bound = NONFINITE_FALLBACK if upper is None else float(upper)
    if not np.isfinite(value):
        return bound
    return min(max(value, 0.0), bound)


def sanitize_bound(value: float, cross_product: float) -> float:
    """Sanitize an *upper bound* -- the dual of :func:`sanitize_estimate`.

    Point-estimate semantics are wrong for bounds: mapping a poisoned
    bound to a small number (or leaving it NaN, which every ``>``
    comparison answers False for) silently disables any guard comparing
    estimates against it.  A bound that is non-finite, negative or
    otherwise unusable must instead *widen* to the one bound that is
    always sound -- the unfiltered cross product -- and a finite bound is
    capped at it (the cross product is sound, so the min of the two still
    is).  Used by :class:`repro.faults.BoundGuard` so fault-injected
    ``nan``/``inf`` bound outputs degrade to "loose", never to "off".
    """
    cross = float(cross_product)
    try:
        value = float(value)
    except (TypeError, ValueError):
        return cross
    if not np.isfinite(value) or value < 0:
        return cross
    return min(value, cross)


def sanitize_estimates(
    values: np.ndarray, uppers: np.ndarray | float | None = None
) -> np.ndarray:
    """Vectorized :func:`sanitize_estimate` for the batched pipeline."""
    values = np.asarray(values, dtype=float)
    bounds = (
        np.full(values.shape, NONFINITE_FALLBACK)
        if uppers is None
        else np.broadcast_to(np.asarray(uppers, dtype=float), values.shape)
    )
    # Per-element ``None`` uppers arrive as NaN: an unknown bound means
    # "no bound", not a poisoned one.
    bounds = np.where(np.isfinite(bounds), bounds, NONFINITE_FALLBACK)
    values = np.where(np.isfinite(values), values, bounds)
    return np.clip(values, 0.0, bounds)


def q_error(estimate: float, true: float) -> float:
    """The standard q-error metric ``max(est/true, true/est)``.

    Both sides are floored at 1 (the usual convention) so empty results and
    zero estimates do not produce infinities.
    """
    est = max(float(estimate), 1.0)
    tru = max(float(true), 1.0)
    return max(est / tru, tru / est)


def q_error_summary(
    estimates: np.ndarray, truths: np.ndarray
) -> dict[str, float]:
    """Q-error quantiles in the shape the benchmark papers report."""
    estimates = np.asarray(estimates, dtype=float)
    truths = np.asarray(truths, dtype=float)
    if estimates.shape != truths.shape:
        raise ValueError("estimates/truths length mismatch")
    if estimates.size == 0:
        raise ValueError("empty evaluation set")
    errs = np.array([q_error(e, t) for e, t in zip(estimates, truths)])
    return {
        "p50": float(np.percentile(errs, 50)),
        "p90": float(np.percentile(errs, 90)),
        "p99": float(np.percentile(errs, 99)),
        "max": float(errs.max()),
        "gmq": float(np.exp(np.log(errs).mean())),  # geometric mean q-error
    }


class BaseCardinalityEstimator:
    """Common base: clamping, naming and the estimator protocol.

    Subclasses implement :meth:`_estimate`; :meth:`estimate` clamps the
    result into ``[0, upper_bound]`` where the upper bound is the product of
    the (unfiltered) table sizes -- no valid SPJ result can exceed it.

    **Batched inference.**  :meth:`estimate_batch` answers a whole workload
    at once.  The default :meth:`_estimate_batch` loops over
    :meth:`_estimate` (so every estimator supports the API); model-backed
    estimators override it to featurize the workload into one matrix and
    run a single forward pass, which is 5-30x faster than per-query calls.
    Clamping is applied vectorized either way, with the same semantics as
    the scalar path.

    **Life-cycle.**  Every caller uses :meth:`fit` and :meth:`refresh` on
    every estimator; subclasses override the :meth:`_fit` / :meth:`_refresh`
    hooks, whose defaults are "nothing to learn from that side" (query-
    driven models override the first, data-driven the second, hybrids both).

    **Estimate versioning.**  ``estimates_version`` increments whenever the
    estimator's answers may change: in :meth:`fit` and :meth:`refresh`
    (here, not in the hooks) and on execution feedback.  The planner's
    :class:`repro.optimizer.CardinalityCache` includes it in cache keys so
    stale entries are never served.
    """

    name: str = "base"

    def __init__(self, db: Database) -> None:
        self.db = db
        self._estimates_version = 0

    @property
    def estimates_version(self) -> int:
        return self._estimates_version

    def _bump_estimates_version(self) -> None:
        self._estimates_version = self.estimates_version + 1

    def fit(self, queries: list[Query], cards: np.ndarray) -> "BaseCardinalityEstimator":
        """Learn from a labelled workload; returns ``self``."""
        if len(queries) == 0:
            raise ValueError("training workload is empty")
        self._fit(queries, cards)
        self._bump_estimates_version()
        return self

    def _fit(self, queries: list[Query], cards: np.ndarray) -> None:
        """Hook: what the model learns from ``(queries, true cards)``."""

    def refresh(self) -> None:
        """Re-read the current data (after inserts / drift)."""
        self._refresh()
        self._bump_estimates_version()

    def _refresh(self) -> None:
        """Hook: rebuild whatever was derived from the table contents."""

    @classmethod
    def learns_from_queries(cls) -> bool:
        """Whether the class overrides :meth:`_fit`: labelled queries teach it."""
        return cls._fit is not BaseCardinalityEstimator._fit

    def _upper_bound(self, query: Query) -> float:
        return cross_product_rows(self.db, query)

    def _estimate(self, query: Query) -> float:
        raise NotImplementedError

    def estimate(self, query: Query) -> float:
        return sanitize_estimate(self._estimate(query), self._upper_bound(query))

    def _estimate_batch(self, queries: list[Query]) -> np.ndarray:
        """Raw batch estimates; the fallback loops the scalar hook."""
        return np.array([self._estimate(q) for q in queries], dtype=float)

    def estimate_batch(self, queries: list[Query]) -> np.ndarray:
        """Estimated COUNT(*) of every query, as one array.

        Equivalent to ``[self.estimate(q) for q in queries]`` (bit-for-bit
        up to floating-point association in batched matrix products), but
        batched implementations pay featurization + one model forward pass
        for the whole workload instead of per query.
        """
        queries = list(queries)
        if not queries:
            return np.zeros(0)
        values = np.asarray(self._estimate_batch(queries), dtype=float)
        if values.shape != (len(queries),):
            raise RuntimeError(
                f"{type(self).__name__}._estimate_batch returned shape "
                f"{values.shape} for {len(queries)} queries"
            )
        rows = {name: max(t.n_rows, 1) for name, t in self.db.tables.items()}
        uppers = np.empty(len(queries))
        for i, q in enumerate(queries):
            u = 1.0
            for t in q.tables:
                u *= rows[t]
            uppers[i] = u
        return sanitize_estimates(values, uppers)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
