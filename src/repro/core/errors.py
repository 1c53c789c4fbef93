"""Typed exception hierarchy for the whole stack.

Every error the repo raises on purpose derives from :class:`ReproError`,
so resilience code (retry loops, circuit breakers, degradation ladders)
can catch "our failures" without masking genuine bugs: a ``KeyError``
from a typo still propagates, while an :class:`EstimationError` from a
misbehaving learned model is retryable/fallback-able by construction.

Subclasses double-inherit from the builtin exception they historically
were (``RuntimeError`` / ``ValueError``), so pre-existing callers -- and
tests -- that catch the builtin keep working unchanged.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigError",
    "EstimationError",
    "DriverError",
    "SessionClosedError",
    "InjectedFault",
    "InjectedEstimationError",
    "InjectedDriverError",
]


class ReproError(Exception):
    """Base class for all deliberate errors raised by this repository."""


class ConfigError(ReproError, ValueError):
    """Invalid configuration or argument value (bad knob, bad fraction)."""


class EstimationError(ReproError, RuntimeError):
    """A cardinality/cost estimator failed to produce an estimate."""


class DriverError(ReproError, RuntimeError):
    """A PilotScope driver or its database connection failed.

    The console's dispatch loop treats these as transient: it retries with
    deterministic backoff and finally degrades to native execution.
    """


class SessionClosedError(DriverError):
    """An operation was attempted on a closed interactor session."""


class InjectedFault(ReproError, RuntimeError):
    """Marker mixin for faults raised by the chaos harness.

    Concrete injected failures raise the matching domain error *combined*
    with this marker (see :mod:`repro.faults.plan`), so resilience code
    handles them exactly like organic failures while tests can still
    assert a failure was synthetic.
    """


class InjectedEstimationError(InjectedFault, EstimationError):
    """Synthetic estimator failure from a :class:`~repro.faults.FaultPlan`."""


class InjectedDriverError(InjectedFault, DriverError):
    """Synthetic driver/connection failure from a fault plan."""
