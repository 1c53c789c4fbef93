"""Deterministic fault injection: the plan, the injector, the wrappers.

A :class:`FaultPlan` is a pure function from ``(target, call_index)`` to
an optional :class:`FaultSpec`: every decision is derived from a sha256
hash of ``(seed, target, kind, spec_index, call_index)``, so the same
plan produces byte-identical fault sequences on every run, regardless of
host or dict ordering.  Because the serving runtime is a single ``submit``
loop over the schedule in ``global_seq`` order, per-target call counters
advance in the same order across same-seed runs -- which is what makes
whole chaos scenarios reproducible end to end.

A :class:`FaultInjector` binds a plan to a :class:`~repro.faults.clock.
VirtualClock` and a set of counters, and wraps concrete components:

- :meth:`~FaultInjector.wrap_estimator` -- injects exceptions, NaN/Inf,
  deterministic garbage values, virtual latency spikes and
  stale-snapshot answers into any cardinality estimator;
- :meth:`~FaultInjector.wrap_learned` -- injects crashes and slow
  inference into a learned optimizer's ``choose_plan``;
- :meth:`~FaultInjector.wrap_backend` -- injects failures and latency
  spikes into a serving backend's ``serve`` (one fabric shard by name).

Injected exceptions are typed (:class:`repro.core.errors.InjectedFault`
subclasses of the matching domain error), so the resilience layer treats
them exactly like organic failures.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

from repro.core.errors import (
    ConfigError,
    InjectedDriverError,
    InjectedEstimationError,
)
from repro.core.interfaces import CardinalityEstimator
from repro.faults.clock import VirtualClock

__all__ = [
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "FaultyEstimator",
    "FaultyLearnedOptimizer",
    "FaultyBackend",
    "shard_fault_plan",
]

#: Every fault class the harness can inject.
FAULT_KINDS = (
    "exception",  # raise a typed error from the wrapped call
    "nan",        # return float("nan")            (estimators)
    "inf",        # return float("inf")            (estimators)
    "garbage",    # return a deterministic wildly-wrong finite value
    "latency",    # virtual latency spike of `magnitude` ms (slow inference)
    "stale",      # answer from a frozen first-seen snapshot (stale stats)
    "disconnect", # transient driver/connection failure
)


@dataclass(frozen=True)
class FaultSpec:
    """One fault class with an activation window and a per-call rate.

    ``rate`` is the per-call probability in ``[0, 1]``; ``start_call`` /
    ``end_call`` bound the half-open call-index window the spec is active
    in (``end_call=None`` means forever); a spec applies only to the
    wrappers registered under its ``target`` name.  ``magnitude`` is the
    latency spike in virtual ms for ``latency`` faults and the scale of
    ``garbage`` values.
    """

    kind: str
    rate: float
    target: str
    start_call: int = 0
    end_call: int | None = None
    magnitude: float = 100.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigError(f"fault rate must be in [0, 1], got {self.rate}")
        if self.magnitude < 0:
            raise ConfigError(f"fault magnitude must be >= 0, got {self.magnitude}")


class FaultPlan:
    """A seeded, deterministic schedule of faults over call indices."""

    def __init__(self, specs: tuple | list = (), *, seed: int = 0) -> None:
        self.specs = tuple(specs)
        self.seed = int(seed)

    def _digest(self, *parts) -> int:
        payload = "|".join(str(p) for p in ("faultplan", self.seed, *parts))
        return int.from_bytes(
            hashlib.sha256(payload.encode()).digest()[:8], "big"
        )

    def _uniform(self, *parts) -> float:
        return self._digest(*parts) / 2**64

    def decide(self, target: str, call_index: int) -> FaultSpec | None:
        """The fault (if any) to inject on ``target``'s ``call_index``-th
        call.  First matching spec wins, in declaration order."""
        for i, spec in enumerate(self.specs):
            if spec.target != target:
                continue
            if call_index < spec.start_call:
                continue
            if spec.end_call is not None and call_index >= spec.end_call:
                continue
            if self._uniform(target, spec.kind, i, call_index) < spec.rate:
                return spec
        return None

    def garbage_value(self, target: str, call_index: int, magnitude: float) -> float:
        """A deterministic pathological-but-finite estimate: magnitudes
        sweep 12 decades and roughly half the draws are negative."""
        h = self._digest(target, "garbage", call_index)
        sign = -1.0 if h & 1 else 1.0
        return sign * magnitude * 10.0 ** ((h >> 1) % 12)


class FaultInjector:
    """Binds a :class:`FaultPlan` to a clock, counters and wrappers."""

    def __init__(self, plan: FaultPlan, *, telemetry=None) -> None:
        self.plan = plan
        self.clock = VirtualClock()
        self.telemetry = telemetry
        self.counters: dict[str, int] = {}

    def record(self, target: str, kind: str) -> None:
        key = f"{target}.{kind}"
        self.counters[key] = self.counters.get(key, 0) + 1
        if self.telemetry is not None:
            self.telemetry.incr(f"faults.injected.{kind}")
            self.telemetry.incr(f"faults.target.{target}")

    def total_injected(self) -> int:
        return sum(self.counters.values())

    def stats(self) -> dict[str, float]:
        """Gauge-friendly snapshot (numeric values, sorted keys)."""
        out: dict[str, float] = {
            k: float(v) for k, v in sorted(self.counters.items())
        }
        out["total"] = float(self.total_injected())
        out["clock_ms"] = self.clock.now_ms()
        return out

    # -- wrapper factories -------------------------------------------------------

    def wrap_estimator(self, estimator):
        return FaultyEstimator(estimator, self, "estimator")

    def wrap_learned(self, learned):
        return FaultyLearnedOptimizer(learned, self, "learned")

    def wrap_backend(self, backend, target: str = "backend"):
        return FaultyBackend(backend, self, target)


class _FaultyBase:
    """Shared per-wrapper call counter + fault lookup."""

    def __init__(self, inner, injector: FaultInjector, target: str) -> None:
        self.inner = inner
        self.injector = injector
        self.target = target
        self.calls = 0

    def _next_fault(self) -> FaultSpec | None:
        n = self.calls
        self.calls += 1
        spec = self.injector.plan.decide(self.target, n)
        if spec is not None:
            self.injector.record(self.target, spec.kind)
        return spec


class FaultyEstimator(_FaultyBase, CardinalityEstimator):
    """Cardinality estimator wrapper injecting per-call faults.

    ``estimate_batch`` is the protocol's scalar loop over :meth:`estimate`,
    so every sub-query estimate passes through the fault schedule
    individually and the per-call indices stay stable whichever API the
    planner uses.
    """

    def __init__(self, inner, injector: FaultInjector, target: str) -> None:
        super().__init__(inner, injector, target)
        self.name = f"{inner.name}+chaos"
        self._snapshot: dict[str, float] = {}

    @property
    def estimates_version(self):
        return self.inner.estimates_version

    def estimate(self, query) -> float:
        n = self.calls  # index of *this* call, for deterministic garbage
        spec = self._next_fault()
        if spec is None:
            value = float(self.inner.estimate(query))
            self._snapshot.setdefault(query.cache_key, value)
            return value
        kind = spec.kind
        if kind in ("exception", "disconnect"):
            raise InjectedEstimationError(
                f"injected {kind} in {self.target!r} at call {n}"
            )
        if kind == "nan":
            return float("nan")
        if kind == "inf":
            return float("inf")
        if kind == "garbage":
            return self.injector.plan.garbage_value(self.target, n, spec.magnitude)
        if kind == "latency":
            self.injector.clock.advance(spec.magnitude)
            value = float(self.inner.estimate(query))
            self._snapshot.setdefault(query.cache_key, value)
            return value
        # stale: answer from the frozen first-seen snapshot -- a model that
        # stopped tracking the data.  First sight of a query seeds the
        # snapshot from the live model.
        value = self._snapshot.get(query.cache_key)
        if value is None:
            value = float(self.inner.estimate(query))
            self._snapshot[query.cache_key] = value
        return value


class FaultyLearnedOptimizer(_FaultyBase):
    """Learned-optimizer wrapper: crashes and slow inference on
    ``choose_plan``.  ``last_call_latency_ms`` exposes the injected
    inference latency of the most recent call so callers with a per-call
    budget (:class:`repro.serve.DeploymentManager`) can enforce it."""

    def __init__(self, inner, injector: FaultInjector, target: str) -> None:
        super().__init__(inner, injector, target)
        self.name = f"{inner.name}+chaos"
        self.last_call_latency_ms = 0.0

    def choose_plan(self, query):
        n = self.calls
        spec = self._next_fault()
        self.last_call_latency_ms = 0.0
        if spec is not None:
            if spec.kind == "latency":
                self.last_call_latency_ms = spec.magnitude
                self.injector.clock.advance(spec.magnitude)
            else:
                raise InjectedEstimationError(
                    f"injected {spec.kind} in {self.target!r} at call {n}"
                )
        return self.inner.choose_plan(query)

    def record_feedback(self, query, candidate, latency_ms: float) -> None:
        self.inner.record_feedback(query, candidate, latency_ms)


class FaultyBackend(_FaultyBase):
    """Serving-backend wrapper: failures and latency spikes on ``serve``.

    Wraps any :class:`~repro.core.interfaces.Backend` -- a shard's
    deployment manager or a synthetic backend -- and is one itself, so
    fault plans can target individual fabric shards by name
    (``target="shard03"``).  Non-latency faults raise
    :class:`~repro.core.errors.InjectedDriverError`, which the shard
    records as a breaker failure; latency faults serve correctly but
    slower.
    """

    def __init__(self, inner, injector: FaultInjector, target: str) -> None:
        super().__init__(inner, injector, target)
        self.name = f"{inner.name}+chaos"
        self.telemetry = inner.telemetry
        self.plan_cache = inner.plan_cache

    def cache_stats(self):
        return self.inner.cache_stats()

    def serve(self, query):
        n = self.calls
        spec = self._next_fault()
        if spec is not None and spec.kind != "latency":
            raise InjectedDriverError(
                f"injected {spec.kind} in backend {self.target!r} at call {n}"
            )
        decision = self.inner.serve(query)
        if spec is not None:
            self.injector.clock.advance(spec.magnitude)
            decision = replace(
                decision, latency_ms=decision.latency_ms + spec.magnitude
            )
        return decision


def shard_fault_plan(
    shard_targets: dict[str, float],
    *,
    seed: int = 0,
    kind: str = "exception",
    start_call: int = 0,
    end_call: int | None = None,
    magnitude: float = 100.0,
) -> FaultPlan:
    """A fault plan scoped to named fabric shards.

    ``shard_targets`` maps a shard target name (``"shard03"``) to its
    per-call fault rate; each gets one spec, so faults on one shard never
    perturb another's call indices.  Used by the fabric rebalancing tests
    and the hot-tenant drill to trip exactly one shard's breaker.
    """
    specs = tuple(
        FaultSpec(
            kind=kind,
            rate=rate,
            target=target,
            start_call=start_call,
            end_call=end_call,
            magnitude=magnitude,
        )
        for target, rate in sorted(shard_targets.items())
    )
    return FaultPlan(specs, seed=seed)
