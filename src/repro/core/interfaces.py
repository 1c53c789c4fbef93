"""Shared interfaces implemented across the repository.

Every learned (and traditional) component plugs into the optimizer through
one of these small protocols:

- :class:`CardinalityEstimator` -- ``estimate(query) -> float`` for any SPJ
  (sub-)query, the batched ``estimate_batch(queries) -> np.ndarray``, a
  ``name`` and the ``estimates_version`` cardinality caches key on.
  Implemented by the traditional histogram estimator, by every method in
  :mod:`repro.cardest` and by the fault-layer wrappers; a class that
  subclasses it inherits the scalar ``estimate_batch`` loop and version 0.
- :class:`CostEstimator` -- ``cost(plan) -> float`` (planner cost units).
- :class:`LatencyPredictor` -- ``predict_latency(plan) -> float`` (ms);
  the interface of learned cost models and risk models.
- :class:`Backend` -- ``serve(query) -> Decision``: what the serving core
  (:class:`repro.serve.ServingRuntime`) drives.
- :class:`ServePolicy` -- what follows a deployment's serve path: sees
  every decision and every stage change, may demand a rollback.

Two generic wrappers give the planner its tuning knobs:

- :class:`InjectedCardinalities` overrides specific sub-query cardinalities
  (PilotScope's batch cardinality-injection interface, §3.2);
- :class:`ScaledCardinalities` multiplies estimates by per-join-level
  factors (Lero's plan-exploration knob [79]).

:func:`batch_estimate` is ``estimate_batch`` as a float array.
:func:`estimator_cache_tag` produces the identity component of cardinality
cache keys (see :class:`repro.optimizer.CardinalityCache`): two lookups
share cached values only when the tags match, and the tag changes whenever
the estimator's answers may change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro.core.records import slot_init
from repro.engine.plans import Plan
from repro.sql.query import Query

__all__ = [
    "CardinalityEstimator",
    "CostEstimator",
    "LatencyPredictor",
    "Retrainable",
    "Decision",
    "Backend",
    "ServePolicy",
    "InjectedCardinalities",
    "ScaledCardinalities",
    "subquery_key",
    "batch_estimate",
    "estimator_cache_tag",
]


@runtime_checkable
class CardinalityEstimator(Protocol):
    """Anything that can estimate SPJ sub-query cardinalities.

    ``estimates_version`` changes whenever the estimator's answers may
    change (a stateless estimator stays at 0).  A subclass that does not
    batch inherits ``estimate_batch`` as the scalar loop, so every query
    passes through its ``estimate`` one at a time."""

    name: str
    estimates_version: int = 0

    def estimate(self, query: Query) -> float:
        """Estimated COUNT(*) of the query (>= 0)."""
        ...

    def estimate_batch(self, queries: list[Query]) -> np.ndarray:
        """Estimated COUNT(*) of every query, as one array."""
        return np.array([self.estimate(q) for q in queries], dtype=float)


@runtime_checkable
class Retrainable(Protocol):
    """Anything the retraining scheduler can drive uniformly.

    The single retraining surface in the repository: the framework's
    :class:`repro.core.framework.RiskModel` extends it, every e2e
    optimizer (``LearnedOptimizer`` and its Neo/LEON/Bao/... subclasses)
    and :class:`repro.regression.PerfGuard` satisfy it.  ``retrain`` refits
    the component from whatever experience it has accumulated; it must be
    a no-op (not an error) when too little has.
    """

    def retrain(self) -> None:
        ...


def batch_estimate(estimator: CardinalityEstimator, queries: list[Query]) -> np.ndarray:
    """``estimator.estimate_batch(queries)`` as a float array (one
    featurization pass + one model forward pass for implementations in
    :mod:`repro.cardest`)."""
    queries = list(queries)
    if not queries:
        return np.zeros(0)
    return np.asarray(estimator.estimate_batch(queries), dtype=float)


def estimator_cache_tag(estimator) -> tuple:
    """Cache-key component identifying an estimator *and* its current state.

    The tag pairs the instance identity with its ``estimates_version``, so
    refits/refreshes/feedback invalidate cached cardinalities without any
    explicit flush.  The steering wrappers
    unwrap recursively: a :class:`ScaledCardinalities` tag is derived from
    its base plus the factor, which lets Lero's per-factor wrapper objects
    (recreated every planning) keep hitting the same cache entries.
    """
    if isinstance(estimator, ScaledCardinalities):
        return (*estimator_cache_tag(estimator.base), "scale", estimator.factor)
    if isinstance(estimator, InjectedCardinalities):
        return (
            *estimator_cache_tag(estimator.base),
            "injected",
            id(estimator),
            estimator.generation,
        )
    return (type(estimator).__name__, id(estimator), estimator.estimates_version)


@runtime_checkable
class CostEstimator(Protocol):
    """Anything that can assign a planner cost to a physical plan."""

    def cost(self, plan: Plan) -> float:
        ...


@runtime_checkable
class LatencyPredictor(Protocol):
    """Anything that can predict plan execution latency in milliseconds."""

    def predict_latency(self, plan: Plan) -> float:
        ...


@slot_init
@dataclass(frozen=True, slots=True)
class Decision:
    """What was decided for one query: which plan source won, in which
    stage, what it cost and what the native plan would have cost.

    The one record of the deciding boundary: every :class:`Backend`
    returns it from ``serve``, :class:`repro.e2e.OptimizationLoop` from
    ``run_query`` (stage ``"offline"``), and policies and
    :class:`repro.lifecycle.ExperienceStore` read it.  A backend with no
    rollout behind it fills the first four fields and leaves the rest.
    """

    stage: str  # deployment stage at serve time
    plan_source: str  # winning candidate source, or "native"
    latency_ms: float  # simulated latency of the plan actually served
    cardinality: int
    query: Query | None = None
    served_learned: bool = False
    native_latency_ms: float | None = None  # None when the baseline was not run
    shadow_latency_ms: float | None = None  # learned plan's off-path latency (SHADOW)

    @property
    def regression(self) -> float | None:
        """Served/native latency ratio where the baseline exists (>1 is a
        regression); in SHADOW the *hypothetical* learned regression."""
        if self.native_latency_ms is None:
            return None
        observed = (
            self.shadow_latency_ms
            if self.shadow_latency_ms is not None
            else self.latency_ms
        )
        return observed / max(self.native_latency_ms, 1e-9)

    @property
    def speedup(self) -> float:
        """Native / served latency (>1 means the served plan won); only
        where the baseline was run."""
        return self.native_latency_ms / max(self.latency_ms, 1e-9)


@runtime_checkable
class Backend(Protocol):
    """Anything the serving core can drive.

    Every member is present on every backend; ``telemetry``,
    ``plan_cache`` and the result of ``cache_stats()`` are ``None`` when
    the backend has no bus / plan cache / cardinality cache of its own.
    """

    name: str
    telemetry: object  # TelemetryBus | None
    plan_cache: object  # PlanCache | None

    def serve(self, query: Query) -> Decision:
        ...

    def cache_stats(self) -> dict | None:
        """Cumulative cardinality-cache counters (``hits`` / ``misses``)."""
        ...


class ServePolicy:
    """Anything that follows a deployment's serve path.

    :class:`repro.serve.DeploymentManager` holds an ordered list of these
    and knows nothing else about them; a policy overrides the hooks it
    needs.  All it may do to the stage is ``deployment.auto_rollback(reason)``.
    """

    def attach(self, deployment) -> None:
        """Once, on joining ``deployment``: adopt ``deployment.telemetry``
        if the policy has no bus of its own and register its gauge there."""

    def on_decision(self, deployment, decision) -> None:
        """After every served query, in list order, inside the
        single-writer core (so deterministically)."""

    def on_transition(self, deployment, stage, reason: str) -> None:
        """After every stage change (promotion, rollback, ``deploy``),
        with the stage just entered."""


def subquery_key(query: Query) -> str:
    """Canonical string key identifying a sub-query (tables + predicates +
    joins).  Query canonicalizes member ordering, so the key is stable."""
    return query.cache_key


class InjectedCardinalities:
    """Estimator wrapper overriding chosen sub-queries with injected values.

    This is PilotScope's cardinality-injection surface: a driver computes
    cardinalities for all sub-queries of the current query in a batch and
    pushes them into the planner; anything not injected falls back to the
    wrapped estimator.  ``generation`` counts injection updates so cached
    plannings never see stale overrides.
    """

    def __init__(self, base: CardinalityEstimator) -> None:
        self.base = base
        self.injected: dict[str, float] = {}
        self.generation = 0

    def inject(self, query: Query, cardinality: float) -> None:
        if cardinality < 0:
            raise ValueError(f"cardinality must be >= 0, got {cardinality}")
        self.injected[subquery_key(query)] = float(cardinality)
        self.generation += 1

    def inject_batch(self, pairs: dict[str, float]) -> None:
        for key, value in pairs.items():
            if value < 0:
                raise ValueError(f"cardinality must be >= 0, got {value} for {key}")
        self.injected.update(pairs)
        self.generation += 1

    def clear(self) -> None:
        self.injected.clear()
        self.generation += 1

    def estimate(self, query: Query) -> float:
        hit = self.injected.get(subquery_key(query))
        if hit is not None:
            return hit
        return self.base.estimate(query)

    def estimate_batch(self, queries: list[Query]) -> np.ndarray:
        """Injected overrides answered from the table; the rest batched."""
        queries = list(queries)
        out = np.empty(len(queries))
        miss_idx: list[int] = []
        misses: list[Query] = []
        for i, q in enumerate(queries):
            hit = self.injected.get(subquery_key(q))
            if hit is not None:
                out[i] = hit
            else:
                miss_idx.append(i)
                misses.append(q)
        if misses:
            out[miss_idx] = batch_estimate(self.base, misses)
        return out


class ScaledCardinalities:
    """Estimator wrapper scaling estimates by join count (Lero's knob).

    ``factor ** max(n_tables - 1, 1)`` multiplies the base estimate, so a
    factor of 10 makes every join look 10x larger per level -- steering the
    planner toward plans that are robust to underestimation, and vice versa.
    Single-table estimates are scaled once (they still influence scan and
    access-path choice).
    """

    def __init__(self, base: CardinalityEstimator, factor: float) -> None:
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        self.base = base
        self.factor = factor

    def estimate(self, query: Query) -> float:
        power = max(query.n_tables - 1, 1)
        return self.base.estimate(query) * self.factor**power

    def estimate_batch(self, queries: list[Query]) -> np.ndarray:
        queries = list(queries)
        powers = np.array([max(q.n_tables - 1, 1) for q in queries], dtype=float)
        return batch_estimate(self.base, queries) * self.factor**powers
