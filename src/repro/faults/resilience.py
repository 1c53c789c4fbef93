"""Resilience primitives: circuit breaker, retries, fallback components.

These are used by the *real* code paths, not just tests: the
:class:`~repro.serve.deployment.DeploymentManager` guards its learned
optimizer with a :class:`CircuitBreaker` and treats trips as rollback
triggers; :class:`~repro.pilotscope.console.PilotScopeConsole` retries
driver dispatch with a deterministic :class:`RetryPolicy` and degrades to
native execution; :class:`FallbackEstimator` is the bottom rung of the
degradation ladder (learned -> histogram) whenever the learned side
throws, returns non-finite garbage, or sits behind an open breaker.

Everything is deterministic: cooldowns are virtual milliseconds on a
:class:`~repro.faults.clock.VirtualClock`, backoff is a pure function of
the attempt number, and breaker state only changes on explicit
``record_*`` calls -- no wall clock anywhere.
"""

from __future__ import annotations

import enum

from repro.core.errors import ConfigError
from repro.core.interfaces import CardinalityEstimator
from repro.faults.clock import VirtualClock

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "RetryPolicy",
    "FallbackEstimator",
]


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


#: numeric codes for gauges (telemetry values must be numbers)
_STATE_CODE = {
    BreakerState.CLOSED: 0,
    BreakerState.OPEN: 1,
    BreakerState.HALF_OPEN: 2,
}


class CircuitBreaker:
    """Closed -> open -> half-open breaker over virtual time.

    ``failure_threshold`` consecutive failures trip the breaker OPEN;
    after ``cooldown_ms`` of virtual time it admits trial calls
    (HALF_OPEN), and one success closes it again -- one failure while
    half-open re-opens it immediately.
    ``epoch`` counts state transitions; estimator wrappers fold it into
    their cache tags so cached cardinalities never outlive a state change.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 3,
        cooldown_ms: float = 1_000.0,
        clock: VirtualClock | None = None,
        name: str = "breaker",
        telemetry=None,
    ) -> None:
        if failure_threshold < 1:
            raise ConfigError("failure_threshold must be >= 1")
        if cooldown_ms < 0:
            raise ConfigError("cooldown_ms must be >= 0")
        self.failure_threshold = failure_threshold
        self.cooldown_ms = cooldown_ms
        self.clock = clock if clock is not None else VirtualClock()
        self.name = name
        self.telemetry = telemetry
        self.state = BreakerState.CLOSED
        self.epoch = 0  # total state transitions
        self.trips = 0  # transitions into OPEN
        self.consecutive_failures = 0
        self.calls_allowed = 0
        self.calls_denied = 0
        self._opened_at_ms = 0.0

    def _transition(self, to: BreakerState, reason: str) -> None:
        if to is self.state:
            return
        if self.telemetry is not None:
            self.telemetry.event(
                "breaker_transition",
                breaker=self.name,
                from_state=self.state.value,
                to_state=to.value,
                reason=reason,
            )
        self.state = to
        self.epoch += 1
        if to is BreakerState.OPEN:
            self.trips += 1
            self._opened_at_ms = self.clock.now_ms()
        if to is BreakerState.CLOSED:
            self.consecutive_failures = 0

    def would_allow(self, at_ms: float) -> bool:
        """Non-mutating peek: would :meth:`allow` admit a call at virtual
        ``at_ms``?  True unless OPEN with the cooldown still running."""
        return (
            self.state is not BreakerState.OPEN
            or at_ms - self._opened_at_ms >= self.cooldown_ms
        )

    def allow(self) -> bool:
        """May the guarded call proceed right now?"""
        if self.state is BreakerState.OPEN:
            if self.would_allow(self.clock.now_ms()):
                self._transition(BreakerState.HALF_OPEN, "cooldown_elapsed")
            else:
                self.calls_denied += 1
                return False
        self.calls_allowed += 1
        return True

    def record_success(self) -> None:
        if self.state is BreakerState.HALF_OPEN:
            self._transition(BreakerState.CLOSED, "half_open_recovered")
        else:
            self.consecutive_failures = 0

    def record_failure(self) -> None:
        if self.state is BreakerState.HALF_OPEN:
            self._transition(BreakerState.OPEN, "half_open_failure")
            return
        self.consecutive_failures += 1
        if (
            self.state is BreakerState.CLOSED
            and self.consecutive_failures >= self.failure_threshold
        ):
            self._transition(
                BreakerState.OPEN,
                f"{self.consecutive_failures} consecutive failures",
            )

    def stats(self) -> dict[str, float]:
        """Gauge-friendly snapshot (numbers only; state as a code:
        0=closed, 1=open, 2=half_open)."""
        return {
            "state": float(_STATE_CODE[self.state]),
            "epoch": float(self.epoch),
            "trips": float(self.trips),
            "consecutive_failures": float(self.consecutive_failures),
            "calls_allowed": float(self.calls_allowed),
            "calls_denied": float(self.calls_denied),
        }


class RetryPolicy:
    """Deterministic bounded retry with exponential virtual backoff.

    ``max_attempts`` counts the first try; ``backoff_ms(attempt)`` is the
    virtual delay *after* failed attempt ``attempt`` (0-based) -- a pure
    function, so retry timelines are identical across runs.
    """

    max_attempts = 2
    base_backoff_ms = 5.0
    multiplier = 2.0

    def backoff_ms(self, attempt: int) -> float:
        return self.base_backoff_ms * self.multiplier**attempt


def _finite_nonnegative(value: float) -> bool:
    # NaN fails both comparisons; +/-inf fails one of them.
    return 0.0 <= value <= 1.79e308


class FallbackEstimator(CardinalityEstimator):
    """Learned -> traditional degradation for cardinality estimation.

    Answers come from ``primary`` while it behaves; any exception or
    non-finite/negative output counts as a failure (fed to the ``breaker``)
    and the query is re-answered by ``fallback`` -- typically the
    histogram estimator, which cannot fail.  While the breaker is open,
    primary is not consulted at all, so a crashing model stops paying its
    own inference cost.

    ``estimates_version`` combines both wrapped versions with the breaker
    epoch, so the planner's cardinality cache never serves values across a
    degradation boundary.  ``estimate_batch`` is the protocol's scalar
    loop: each query meets the breaker on its own.
    """

    name = "estimator"

    def __init__(
        self,
        primary,
        fallback,
        *,
        breaker: CircuitBreaker,
        telemetry,
    ) -> None:
        self.primary = primary
        self.fallback = fallback
        self.breaker = breaker
        self.telemetry = telemetry
        self.calls = 0
        self.fallback_served = 0
        self.primary_errors = 0
        self.nonfinite_outputs = 0
        self.breaker_denied = 0

    @property
    def estimates_version(self):
        return (
            self.primary.estimates_version,
            self.fallback.estimates_version,
            self.breaker.epoch,
        )

    def _serve_fallback(self, query) -> float:
        self.fallback_served += 1
        self.telemetry.incr("fallback.estimator.served")
        return float(self.fallback.estimate(query))

    def estimate(self, query) -> float:
        self.calls += 1
        if not self.breaker.allow():
            self.breaker_denied += 1
            self.telemetry.incr("fallback.estimator.breaker_denied")
            return self._serve_fallback(query)
        try:
            value = float(self.primary.estimate(query))
        except Exception:
            self.primary_errors += 1
            self.telemetry.incr("fallback.estimator.primary_errors")
            self.breaker.record_failure()
            return self._serve_fallback(query)
        if not _finite_nonnegative(value):
            self.nonfinite_outputs += 1
            self.telemetry.incr("fallback.estimator.nonfinite")
            self.breaker.record_failure()
            return self._serve_fallback(query)
        self.breaker.record_success()
        return value

    def stats(self) -> dict[str, float]:
        return {
            "calls": float(self.calls),
            "fallback_served": float(self.fallback_served),
            "primary_errors": float(self.primary_errors),
            "nonfinite_outputs": float(self.nonfinite_outputs),
            "breaker_denied": float(self.breaker_denied),
        }
