"""Deterministic chaos/resilience subsystem (ROADMAP: robustness).

The regression-elimination theme of the paper (§2.2.2: Eraser, PerfGuard)
is about surviving a *misbehaving learned component*; the field studies
(Wang et al., Lehmann et al.) show learned estimators and optimizers
failing with pathological estimates, drift, stale models and slow
inference.  This package makes those failures injectable -- and the rest
of the stack survivable:

- :mod:`repro.faults.plan` -- :class:`FaultPlan` / :class:`FaultInjector`:
  seeded, hash-scheduled fault injection (exceptions, NaN/Inf/garbage
  predictions, latency spikes, stale snapshots, transient disconnects)
  wrapping estimators, learned optimizers and serving backends,
  byte-for-byte reproducible per seed;
- :mod:`repro.faults.resilience` -- the primitives the serving stack uses
  to degrade gracefully: :class:`CircuitBreaker` (closed -> open ->
  half-open over virtual time), :class:`RetryPolicy` (deterministic
  backoff), :class:`FallbackEstimator` (learned -> histogram);
- :mod:`repro.faults.boundguard` -- :class:`BoundGuard`: certifies every
  served estimate against a pessimistic upper bound
  (:mod:`repro.cardest.bounds`); violations trip the breaker, route to
  the fallback path and surface as ``bounds.*`` telemetry;
- :mod:`repro.faults.clock` -- the shared :class:`VirtualClock` all
  durations live on (nothing here touches wall clock).

``benchmarks/bench_p3_chaos.py`` and the chaos scenario in
:mod:`repro.serve.scenarios` drive the whole ladder end to end.

Exported here: the names some module outside this package imports through
it (``tests/test_census.py`` holds that line); anything else is imported
from the module that defines it.
"""

from repro.faults.boundguard import BoundGuard
from repro.faults.clock import VirtualClock
from repro.faults.plan import FaultInjector, FaultPlan, FaultSpec, shard_fault_plan
from repro.faults.resilience import (
    BreakerState,
    CircuitBreaker,
    FallbackEstimator,
    RetryPolicy,
)

__all__ = [
    "BoundGuard",
    "BreakerState",
    "CircuitBreaker",
    "FallbackEstimator",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "RetryPolicy",
    "VirtualClock",
    "shard_fault_plan",
]
