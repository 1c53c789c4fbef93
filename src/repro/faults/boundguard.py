"""Serving-side bound-violation guard for cardinality estimation.

The pessimistic estimators of :mod:`repro.cardest.bounds` certify an
upper bound on every query's cardinality.  :class:`BoundGuard` turns
that certificate into a runtime tripwire on the serving path, one rung
above :class:`~repro.faults.resilience.FallbackEstimator` on the
degradation ladder:

- every served estimate is checked against its certified bound; a point
  estimate exceeding ``bound * tolerance`` can only be a broken model
  (the bound is sound), so the guard refuses to serve it, records a
  breaker failure and answers from the fallback (histogram/native) path
  instead -- capped at the bound, so even the fallback cannot overshoot
  the certificate;
- the online auditor's observed exact counts flow back through
  :meth:`observe_count`; an observed count above the bound means the
  *bound itself* is broken (stale sketches after unrefreshed drift, or
  a bug), which is strictly worse -- it also trips the breaker and is
  reported separately;
- a poisoned bound (NaN/Inf/negative, e.g. under fault injection) is
  sanitized UP to the cross-product bound by
  :func:`repro.cardest.base.sanitize_bound`, never down -- so the guard
  degrades to "loose", never to silently disabled;
- everything is visible in telemetry under ``bounds.*`` counters plus a
  ``bound_violation`` event per trip, and :meth:`stats` feeds the
  deployment gauge (including bound/estimate ratio percentiles).

``estimates_version`` folds all three wrapped versions and the breaker
epoch together, so cardinality caches never serve values across a guard
state change.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.cardest.base import (
    NONFINITE_FALLBACK,
    cross_product_rows,
    sanitize_bound,
)
from repro.core.interfaces import ServePolicy
from repro.faults.resilience import CircuitBreaker
from repro.sql.query import query_hash

__all__ = ["BoundGuard"]


#: most recent bound / estimate ratios kept for the gauge's percentiles
#: (the bus ``Histogram``'s capacity): a guard lives as long as its server
RATIO_WINDOW = 65_536


class BoundGuard(ServePolicy):
    """Guard a point estimator with a certified upper-bound estimator.

    ``primary`` produces the served estimates (typically the learned
    estimator, possibly already behind a ``FallbackEstimator``);
    ``bounds`` is the pessimistic estimator; ``fallback`` answers when
    the guard refuses the primary.  ``tolerance`` is the multiplicative
    slack an estimate may exceed the bound by before the guard trips --
    1.0 enforces the certificate exactly.  As a deployment policy, a
    guard registers its gauge on the deployment's bus.
    """

    name = "bound_guard"  # the guard its violation events name

    def __init__(
        self,
        primary,
        bounds,
        fallback,
        *,
        db=None,
        breaker: CircuitBreaker | None = None,
        telemetry=None,
        tolerance: float = 1.0,
    ) -> None:
        if tolerance < 1.0:
            raise ValueError("tolerance must be >= 1.0")
        self.primary = primary
        self.bounds = bounds
        self.fallback = fallback
        self.db = db if db is not None else bounds.db
        self.breaker = breaker
        self.telemetry = telemetry
        self.tolerance = float(tolerance)
        self.checked = 0
        self.counts_observed = 0
        self.estimate_violations = 0  # point estimate exceeded the bound
        self.bound_violations = 0  # observed count exceeded the bound
        self.fallback_served = 0
        self.breaker_denied = 0
        self.primary_errors = 0
        self.bound_errors = 0
        # bound / max(estimate, 1), newest RATIO_WINDOW
        self._ratios: deque[float] = deque(maxlen=RATIO_WINDOW)

    # -- plumbing ----------------------------------------------------------------

    @property
    def estimates_version(self):
        return (
            self.primary.estimates_version,
            self.bounds.estimates_version,
            self.fallback.estimates_version,
            self.breaker.epoch if self.breaker is not None else 0,
        )

    def _incr(self, counter: str) -> None:
        if self.telemetry is not None:
            self.telemetry.incr(counter)

    def _event(self, **fields) -> None:
        if self.telemetry is not None:
            self.telemetry.event("bound_violation", guard=self.name, **fields)

    def certified_bound(self, query) -> float:
        """The sanitized upper bound the guard enforces for one query."""
        cross = cross_product_rows(self.db, query)
        try:
            raw = float(self.bounds.estimate(query))
        except Exception:
            self.bound_errors += 1
            self._incr("bounds.bound_errors")
            raw = float("nan")
        return sanitize_bound(raw, cross)

    def _serve_fallback(self, query, bound: float) -> float:
        self.fallback_served += 1
        self._incr("bounds.fallback_served")
        return min(float(self.fallback.estimate(query)), bound)

    # -- the estimator surface ----------------------------------------------------

    def estimate(self, query) -> float:
        self.checked += 1
        self._incr("bounds.checked")
        bound = self.certified_bound(query)
        if self.breaker is not None and not self.breaker.allow():
            self.breaker_denied += 1
            self._incr("bounds.breaker_denied")
            return self._serve_fallback(query, bound)
        try:
            point = float(self.primary.estimate(query))
        except Exception:
            self.primary_errors += 1
            self._incr("bounds.primary_errors")
            if self.breaker is not None:
                self.breaker.record_failure()
            return self._serve_fallback(query, bound)
        if not np.isfinite(point) or point < 0:
            # Uncertifiable output counts as exceeding any bound.
            point = float("inf")
        self._ratios.append(bound / max(min(point, NONFINITE_FALLBACK), 1.0))
        if point > bound * self.tolerance:
            self.estimate_violations += 1
            self._incr("bounds.estimate_violations")
            self._event(
                source="estimate",
                query=query_hash(query),
                bound=float(bound),
                estimate=float(min(point, NONFINITE_FALLBACK)),
            )
            if self.breaker is not None:
                self.breaker.record_failure()
            return self._serve_fallback(query, bound)
        if self.breaker is not None:
            self.breaker.record_success()
        return point

    def estimate_batch(self, queries) -> np.ndarray:
        """Batched serving stays guarded: the scalar path per query (the
        guard's value is the check, not throughput)."""
        return np.array([self.estimate(q) for q in queries], dtype=float)

    # -- the auditor surface -------------------------------------------------------

    def observe_count(self, query, observed: float, *, bus) -> bool:
        """Check an *observed exact count* against the certified bound.

        Fed by :class:`repro.oracle.OnlineAuditor` with ground truth from
        the serving path.  Returns True when the bound was violated --
        the sketches no longer cover the data (drift without refresh) or
        the bound estimator is buggy.  Either way the certificate is
        void: trip the breaker so serving degrades to the fallback.  The
        violation is filed on ``bus``, the serving core's.
        """
        self.counts_observed += 1
        bound = self.certified_bound(query)
        if float(observed) <= bound * self.tolerance:
            return False
        self.bound_violations += 1
        bus.incr("bounds.bound_violations")
        bus.event(
            "bound_violation",
            guard=self.name,
            source="observed_count",
            query=query_hash(query),
            bound=float(bound),
            observed=float(observed),
        )
        if self.breaker is not None:
            self.breaker.record_failure()
        return True

    # -- the deployment policy surface ---------------------------------------------

    def attach(self, deployment) -> None:
        if self.telemetry is None:
            self.telemetry = deployment.telemetry
        deployment.telemetry.attach_gauge("bound_guard", self.stats)

    # -- reporting ----------------------------------------------------------------

    @property
    def violations(self) -> int:
        return self.estimate_violations + self.bound_violations

    def violation_rate(self) -> float:
        return self.violations / max(self.checked + self.counts_observed, 1)

    def stats(self) -> dict[str, float]:
        """Gauge-friendly snapshot (numbers only), incl. percentiles of the
        most recent :data:`RATIO_WINDOW` bound / estimate ratios."""
        ratios = np.fromiter(self._ratios, dtype=float, count=len(self._ratios))
        pct = (
            np.percentile(ratios, [50, 90, 99])
            if ratios.size
            else np.zeros(3)
        )
        return {
            "checked": float(self.checked),
            "counts_observed": float(self.counts_observed),
            "estimate_violations": float(self.estimate_violations),
            "bound_violations": float(self.bound_violations),
            "violation_rate": float(self.violation_rate()),
            "fallback_served": float(self.fallback_served),
            "breaker_denied": float(self.breaker_denied),
            "primary_errors": float(self.primary_errors),
            "bound_errors": float(self.bound_errors),
            "breaker_trips": float(
                self.breaker.trips if self.breaker is not None else 0
            ),
            "ratio_p50": float(pct[0]),
            "ratio_p90": float(pct[1]),
            "ratio_p99": float(pct[2]),
        }
