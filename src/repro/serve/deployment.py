"""Staged deployment of a learned optimizer: shadow -> canary -> live.

Lehmann et al. and Eraser both document the same field observation: a
learned optimizer that wins on average still regresses unpredictably on
individual queries, so it cannot be cut over wholesale.
:class:`DeploymentManager` therefore walks a model through the rollout
stages production ML systems use:

- ``SHADOW``: every query is planned by both sides but *served* by the
  native optimizer; the learned candidate is executed hypothetically (on
  the simulator, off the serving path) to measure what its speedup would
  have been.  The staged model trains on this stream without ever touching
  a user-visible plan.
- ``CANARY``: a deterministic fraction of traffic -- chosen by query hash,
  so the same query always lands on the same side -- is served by the
  learned optimizer (behind any configured guards); the rest stays native.
- ``LIVE``: all traffic is served learned (still guarded, still monitored
  against the native baseline).
- ``ROLLED_BACK``: terminal; the model has been demoted and all traffic is
  native again.

Demotion is automatic: learned-served queries feed a rolling window of
learned / native latency ratios (>1 is a regression), and when the
window mean breaches ``regression_threshold`` the manager rolls back and
records the event on the telemetry bus.  Promotion is manual
(:meth:`promote`) or automatic (``auto_promote=True``) once a full window
stays healthy.

Everything else that follows the serve path (retrain cadence, experience
store, model registry, bound rule, risk tuner, retraining scheduler) is a
:class:`repro.core.interfaces.ServePolicy` in the ordered ``policies``
list; a policy demotes the model only through :meth:`auto_rollback`.
"""

from __future__ import annotations

import enum
from statistics import fmean

from repro.core.errors import ConfigError
from repro.core.interfaces import Decision, ServePolicy
from repro.engine.plans import Plan
from repro.engine.simulator import ExecutionSimulator
from repro.faults.resilience import CircuitBreaker
from repro.optimizer.plancache import PlanCache
from repro.optimizer.planner import Optimizer
from repro.regression import GuardChain
from repro.serve.telemetry import TelemetryBus
from repro.sql.query import Query, query_hash

__all__ = ["Stage", "DeploymentManager"]


class Stage(enum.Enum):
    SHADOW = "shadow"
    CANARY = "canary"
    LIVE = "live"
    ROLLED_BACK = "rolled_back"


#: the transitions promote() / auto_promote are allowed to make
_PROMOTIONS = {Stage.SHADOW: Stage.CANARY, Stage.CANARY: Stage.LIVE}
#: the stages in which the learned model is on the serving path
_SERVING = (Stage.CANARY, Stage.LIVE)


class DeploymentManager:
    """Serves queries while managing one staged learned optimizer.

    ``learned`` exposes the :class:`repro.core.framework.LearnedOptimizer`
    surface (``choose_plan`` / ``record_feedback`` / ``name``); ``guards``
    are regression guards (the :mod:`repro.regression` guard interface)
    stacked in order via :class:`repro.regression.GuardChain` and only
    consulted on the serving path (CANARY/LIVE) -- shadow evaluation
    measures the raw model.

    The defaults are stated once, in the signature: a model staged at
    SHADOW, canaried on 10% of traffic, rolled back once the mean of its
    last 40 learned / native ratios passes 1.3 with at least 15 ratios in,
    and -- given ``auto_promote`` -- promoted once a full window's mean is
    at most 1.15.  A caller passes only the keywords it varies.
    """

    def __init__(
        self,
        learned,
        native: Optimizer,
        simulator: ExecutionSimulator,
        *,
        guards=(),
        telemetry: TelemetryBus | None = None,
        stage: Stage = Stage.SHADOW,
        canary_fraction: float = 0.1,
        window: int = 40,
        min_samples: int = 15,
        regression_threshold: float = 1.3,
        auto_promote: bool = False,
        monitor_native: bool = True,
        name: str | None = None,
        breaker: CircuitBreaker | None = None,
        call_timeout_ms: float | None = None,
        rollback_after_trips: int | None = 3,
        model_version: str | None = None,
        plan_cache: PlanCache | None = None,
        policies=(),
    ) -> None:
        """``breaker`` guards the learned optimizer: exceptions and
        latency-budget blow-outs from ``choose_plan`` are recorded as
        failures, queries behind an open breaker are served via the
        degradation ladder (``plan_source="native:degraded"``), and once
        the breaker has tripped ``rollback_after_trips`` times while
        CANARY/LIVE the model is rolled back for good (``None`` disables
        the trigger).  ``call_timeout_ms`` is the virtual per-call
        inference budget, checked against the learned component's
        ``last_call_latency_ms``: a model served under a budget reports the
        inference latency of its last ``choose_plan`` (the fault injector's
        wrapper does).

        ``model_version`` is the registry version id of ``learned`` (what
        a :class:`repro.lifecycle.ModelRegistry` policy files stage
        changes under); :meth:`deploy` replaces it.

        ``plan_cache`` is an optional :class:`repro.optimizer.PlanCache`
        serving the *native* plannings (the serving baseline, the shadow
        baseline and the degraded path): same-template queries reuse the
        compiled plan across literal bindings.  Every stage transition
        invalidates it -- a stage flip changes what is being measured,
        and plans cached under the previous stage must not leak into the
        next one's comparisons.

        ``policies`` are attached in order (see :meth:`add_policy`): each
        one's ``on_decision`` runs in list order after every served query,
        each one's ``on_transition`` after every stage change."""
        if not 0.0 < canary_fraction <= 1.0:
            raise ConfigError("canary_fraction must be in (0, 1]")
        if min_samples < 1 or window < min_samples:
            raise ConfigError("need window >= min_samples >= 1")
        if rollback_after_trips is not None and rollback_after_trips < 1:
            raise ConfigError("rollback_after_trips must be >= 1 or None")
        self.learned = learned
        self.native = native
        self.simulator = simulator
        self.telemetry = telemetry if telemetry is not None else TelemetryBus()
        self.guard = GuardChain(*guards, telemetry=self.telemetry) if guards else None
        self.stage = stage
        self.canary_fraction = canary_fraction
        self.window = window
        self.min_samples = min_samples
        self.regression_threshold = regression_threshold
        self.auto_promote = auto_promote
        self.monitor_native = monitor_native
        self.name = name or learned.name
        self.breaker = breaker
        self.call_timeout_ms = call_timeout_ms
        self.rollback_after_trips = rollback_after_trips
        self.model_version = model_version
        self.plan_cache = plan_cache
        self.policies: list[ServePolicy] = []
        self.queries_served = 0
        self.learned_failures = 0
        self.degraded_serves = 0
        self._regressions: list[float] = []  # rolling, len <= window
        self.telemetry.attach_gauge("cardinality_cache", native.cache_stats)
        if plan_cache is not None:
            self.telemetry.attach_gauge("plan_cache", plan_cache.stats)
        if breaker is not None:
            if breaker.telemetry is None:
                breaker.telemetry = self.telemetry
            self.telemetry.attach_gauge(f"breaker_{breaker.name}", breaker.stats)
        for i, g in enumerate(guards):
            self.telemetry.attach_gauge(
                f"guard_{i}_{type(g).__name__.lower()}",
                (lambda g=g: {
                    "decisions": g.decisions,
                    "interventions": g.interventions,
                    "intervention_rate": g.intervention_rate,
                }),
            )
        for policy in policies:
            self.add_policy(policy)

    def add_policy(self, policy: ServePolicy) -> None:
        """Append ``policy`` to the end of the list and attach it."""
        self.policies.append(policy)
        policy.attach(self)

    # -- lifecycle ------------------------------------------------------------------

    def promote(self) -> Stage:
        """SHADOW -> CANARY -> LIVE; anything else is an error."""
        nxt = _PROMOTIONS.get(self.stage)
        if nxt is None:
            raise ConfigError(f"cannot promote from {self.stage.value}")
        self._transition(nxt, reason="promote")
        return self.stage

    def auto_rollback(self, reason: str) -> None:
        """Demote a model that is on the serving path (CANARY/LIVE) and
        count it -- the one thing a policy may do to the stage.  No-op in
        SHADOW (the model serves nothing) and ROLLED_BACK (terminal)."""
        if self.stage in _SERVING:
            self.telemetry.incr("deployment.auto_rollbacks")
            self._transition(Stage.ROLLED_BACK, reason=reason)

    def _transition(self, to: Stage, *, reason: str) -> None:
        self.telemetry.event(
            "stage_transition",
            deployment=self.name,
            from_stage=self.stage.value,
            to_stage=to.value,
            reason=reason,
            at_query=self.queries_served,
        )
        self._enter(to, reason)

    def _enter(self, stage: Stage, reason: str) -> None:
        """What every stage change does, :meth:`deploy` included."""
        self.stage = stage
        self._regressions.clear()
        if self.plan_cache is not None:
            self.plan_cache.invalidate()
            self.telemetry.incr("plan_cache.invalidations")
        for policy in self.policies:
            policy.on_transition(self, stage, reason)

    def deploy(
        self,
        model,
        *,
        version: str,
        reason: str = "gate_passed",
    ) -> None:
        """Swap in a new (gated) model, entering at SHADOW.

        This is how a registry-versioned challenger that passed the
        :class:`repro.lifecycle.EvalGate` takes over: it starts in SHADOW
        -- off the serving path -- and earns promotion through
        the same rolling-window machinery as any other staged model.  The
        regression window resets; the previous model keeps whatever stage
        history the registry recorded for it.  ``deploy`` also re-arms a
        ROLLED_BACK deployment (the recovery path the lifecycle loop
        exists to provide)."""
        self.learned = model
        self.name = model.name
        self.model_version = version
        self.telemetry.incr("deployment.deploys")
        self.telemetry.event(
            "model_deployed",
            deployment=self.name,
            version=version,
            stage=Stage.SHADOW.value,
            reason=reason,
            at_query=self.queries_served,
        )
        self._enter(Stage.SHADOW, reason)

    # -- regression window ------------------------------------------------------------

    def _observe_regression(self, ratio: float) -> None:
        self._regressions.append(ratio)
        if len(self._regressions) > self.window:
            del self._regressions[0]
        if len(self._regressions) < self.min_samples:
            return
        mean = fmean(self._regressions)
        if mean > self.regression_threshold and self.stage in _SERVING:
            self.auto_rollback(
                f"regression_window mean={mean:.3f}>{self.regression_threshold:g}"
            )
        elif (
            self.auto_promote
            and len(self._regressions) == self.window
            and mean <= 1.0 + (self.regression_threshold - 1.0) / 2
            and self.stage in _PROMOTIONS
        ):
            self._transition(
                _PROMOTIONS[self.stage],
                reason=f"auto_promote mean={mean:.3f}",
            )

    def window_mean(self) -> float | None:
        return fmean(self._regressions) if self._regressions else None

    # -- serving -----------------------------------------------------------------------

    def is_canary_query(self, query: Query) -> bool:
        """Deterministic traffic split: same query, same side, any run."""
        bucket = int(query_hash(query), 16) % 10_000
        return bucket < self.canary_fraction * 10_000

    def _learned_serves(self, query: Query) -> bool:
        if self.stage is Stage.LIVE:
            return True
        if self.stage is Stage.CANARY:
            return self.is_canary_query(query)
        return False

    def _native_plan(self, query: Query) -> Plan:
        """Native planning, through the plan cache when one is wired."""
        if self.plan_cache is None:
            return self.native.plan(query)
        plan, hit = self.native.plan_cached(query, self.plan_cache)
        self.telemetry.incr("plan_cache.hits" if hit else "plan_cache.misses")
        return plan

    def serve(self, query: Query) -> Decision:
        """Serve one query according to the current stage."""
        stage = self.stage  # snapshot: transitions below affect later queries
        if self._learned_serves(query):
            decision = self._serve_learned(query, stage)
        else:
            decision = self._serve_native(query, stage)
        self.queries_served += 1
        if self.breaker is not None:
            # Served latency drives the breaker's virtual clock, so
            # cooldowns elapse deterministically with traffic.
            self.breaker.clock.advance(decision.latency_ms)
        self._record(decision)
        # A policy may re-enter deploy() or auto_rollback() here (the
        # retraining scheduler does): safe, because nothing below reads
        # self.learned or self.stage again for this query.
        for policy in self.policies:
            policy.on_decision(self, decision)
        return decision

    def _serve_native(
        self, query: Query, stage: Stage, plan_source: str = "native"
    ) -> Decision:
        native_plan = self._native_plan(query)
        result = self.simulator.execute(native_plan)
        shadow_latency = None
        if stage is Stage.SHADOW:
            # Off-path evaluation: plan with the raw model, execute
            # hypothetically, feed the latency back so the model trains.
            # A crashing model must not take native serving down with it:
            # the failure is recorded and shadow evaluation is skipped.
            try:
                candidate = self.learned.choose_plan(query)
            except Exception:
                self._learned_failure("shadow_error")
                candidate = None
            if candidate is not None:
                if candidate.plan.signature() == native_plan.signature():
                    shadow_latency = result.latency_ms
                else:
                    shadow_latency = self.simulator.execute(
                        candidate.plan
                    ).latency_ms
                self.learned.record_feedback(query, candidate, shadow_latency)
                self._observe_regression(
                    shadow_latency / max(result.latency_ms, 1e-9)
                )
        return Decision(
            query=query,
            stage=stage.value,
            served_learned=False,
            plan_source=plan_source,
            latency_ms=result.latency_ms,
            cardinality=result.cardinality,
            native_latency_ms=result.latency_ms if stage is Stage.SHADOW else None,
            shadow_latency_ms=shadow_latency,
        )

    def _learned_failure(self, reason: str) -> None:
        """Account one learned-path failure and drive the breaker."""
        self.learned_failures += 1
        self.telemetry.incr("deployment.learned_failures")
        self.telemetry.incr(f"deployment.learned_failures.{reason}")
        if self.breaker is None:
            return
        trips_before = self.breaker.trips
        self.breaker.record_failure()
        if self.breaker.trips > trips_before:
            self.telemetry.incr("deployment.breaker_trips")
            if (
                self.rollback_after_trips is not None
                and self.breaker.trips >= self.rollback_after_trips
            ):
                self.auto_rollback(
                    f"breaker_trips={self.breaker.trips}>={self.rollback_after_trips}"
                )

    def _serve_degraded(self, query: Query, stage: Stage) -> Decision:
        """Bottom of the degradation ladder: serve natively, skip the
        learned path entirely (no feedback -- the model is suspect).
        Only reached from CANARY/LIVE, so no shadow evaluation runs."""
        self.degraded_serves += 1
        self.telemetry.incr("deployment.degraded")
        return self._serve_native(query, stage, "native:degraded")

    def _serve_learned(self, query: Query, stage: Stage) -> Decision:
        if self.breaker is not None and not self.breaker.allow():
            self.telemetry.incr("deployment.degraded.breaker_open")
            return self._serve_degraded(query, stage)
        try:
            candidate = self.learned.choose_plan(query)
        except Exception:
            self._learned_failure("error")
            return self._serve_degraded(query, stage)
        if (
            self.call_timeout_ms is not None
            and self.learned.last_call_latency_ms > self.call_timeout_ms
        ):
            self._learned_failure("timeout")
            return self._serve_degraded(query, stage)
        if self.breaker is not None:
            self.breaker.record_success()
        native_plan = self._native_plan(query)
        if self.guard is not None:
            candidate = self.guard(query, candidate, native_plan)
        result = self.simulator.execute(candidate.plan)
        native_latency = None
        if self.monitor_native:
            if candidate.plan.signature() == native_plan.signature():
                native_latency = result.latency_ms
            else:
                native_latency = self.simulator.execute(native_plan).latency_ms
        self.learned.record_feedback(query, candidate, result.latency_ms)
        if self.guard is not None and native_latency is not None:
            self.guard.record(query, candidate, result.latency_ms, native_latency)
            if candidate.plan.signature() != native_plan.signature():
                self.guard.record_native(query, native_plan, native_latency)
        if native_latency is not None:
            self._observe_regression(result.latency_ms / max(native_latency, 1e-9))
        return Decision(
            query=query,
            stage=stage.value,
            served_learned=True,
            plan_source=candidate.source,
            latency_ms=result.latency_ms,
            cardinality=result.cardinality,
            native_latency_ms=native_latency,
            shadow_latency_ms=None,
        )

    # -- telemetry ---------------------------------------------------------------------

    def _record(self, decision: Decision) -> None:
        bus = self.telemetry
        bus.incr(f"serve.stage.{decision.stage}")
        bus.incr(
            "serve.learned" if decision.served_learned else "serve.native"
        )
        bus.observe("latency_ms", decision.latency_ms)
        if decision.served_learned:
            bus.observe("learned_latency_ms", decision.latency_ms)
        if decision.regression is not None:
            bus.observe("regression_ratio", decision.regression)

    def cache_stats(self) -> dict:
        return self.native.cache_stats()
