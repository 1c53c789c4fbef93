"""Continuous-retraining scheduler: triggers, clone-then-retrain, gating.

The tutorial's maintenance story (§2.2.2) is that learned components decay
-- data drifts (DDUp), workloads shift (Warper), and accuracy erodes -- so
a production deployment needs a *policy* for when and how to retrain.
:class:`RetrainingScheduler` is that policy, composed from three trigger
families and run entirely on **virtual time** (queries served + simulated
latency), so two same-seed runs fire at identical points:

- :class:`DriftTrigger` -- periodically runs a
  :class:`~repro.cardest.drift.DDUpDetector` check; its ``fine_tune`` /
  ``retrain`` triage (DDUp's detect/distill/update) picks the retraining
  *action*.
- :class:`QErrorTrigger` -- a rolling window of observed q-errors
  (estimate vs. post-execution true cardinality); fires when the window
  quantile degrades past a threshold.  Pure accuracy watchdog: catches
  decay the drift detector's table statistics miss.
- :class:`CadenceTrigger` -- fixed every-N-queries fallback, the "retrain
  nightly regardless" policy.

When any trigger fires (outside the cooldown), the scheduler **clones the
champion** (:func:`clone_model` -- the live model is never mutated),
retrains the clone through the injected ``retrainer`` on the experience
store's data, registers the challenger in the
:class:`~repro.lifecycle.registry.ModelRegistry` with full lineage, and
hands it to the :class:`~repro.lifecycle.gates.EvalGate`.  Only a passing
challenger reaches the :class:`~repro.serve.deployment.DeploymentManager`
-- and always at SHADOW, never straight to LIVE.
"""

from __future__ import annotations

import copy
import math
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass

from repro.cardest.base import q_error
from repro.core.errors import ConfigError
from repro.core.interfaces import ServePolicy

__all__ = [
    "TriggerDecision",
    "CadenceTrigger",
    "QErrorTrigger",
    "DriftTrigger",
    "RetrainOutcome",
    "RetrainingScheduler",
    "clone_model",
]


def clone_model(model, *, shared=()):
    """Deep-copy ``model`` while *sharing* the infrastructure in ``shared``.

    The memo is pre-seeded so the database, native optimizer, simulator
    etc. are referenced, not duplicated -- both because copying a database
    is wasteful and because infrastructure may hold uncopyable state
    (locks).  The returned clone is safe to retrain without touching the
    champion.
    """
    memo = {id(o): o for o in shared}
    return copy.deepcopy(model, memo)


@dataclass(frozen=True)
class TriggerDecision:
    """One trigger's verdict at a scheduler step."""

    fired: bool
    reason: str  # e.g. "drift:orders", "qerror_p90=41.2", "cadence"
    action: str = "retrain"  # "fine_tune" | "retrain"


class CadenceTrigger:
    """Fires every ``every_queries`` served queries."""

    name = "cadence"

    def __init__(self, *, every_queries: int) -> None:
        self.every_queries = every_queries
        self._last_queries = 0

    def observe(self, estimate: float, truth: float) -> None:  # uniform surface
        pass

    def check(self, ctx: "SchedulerContext") -> TriggerDecision:
        if ctx.queries - self._last_queries >= self.every_queries:
            self._last_queries = ctx.queries
            return TriggerDecision(True, f"cadence:{self.every_queries}q", "fine_tune")
        return TriggerDecision(False, "cadence:idle")

    def reset(self, ctx: "SchedulerContext") -> None:
        """Re-arm after any retraining (cadence counts from the last one)."""
        self._last_queries = ctx.queries


def linear_quantile(s: list[float], quantile: float) -> float:
    """The float ``np.quantile`` (method ``linear``) returns for the
    ascending, non-empty ``s``, with numpy's own index and interpolation
    arithmetic."""
    n = len(s)
    virtual = (n - 1) * quantile
    below = math.floor(virtual)
    if virtual >= n - 1:
        return s[-1]
    a, b = s[below], s[below + 1]
    t = virtual - below
    # numpy's _lerp: from below under half way, from above at or past it.
    return a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t)


class QErrorTrigger:
    """Fires when the rolling q-error quantile *degrades* relative to the
    model's own baseline.

    Absolute q-error is a property of the workload as much as of the
    model (join-heavy queries are simply harder), so a fixed threshold
    either never fires or fires on day one.  The trigger instead captures
    a **baseline**: the window's 0.9 quantile the first time the window
    fills after (re)deployment.  It fires when the current quantile
    exceeds ``baseline * degradation`` -- i.e. the model got materially
    worse than *itself*.
    """

    name = "qerror"
    quantile = 0.9
    degradation = 3.0

    def __init__(self, *, window: int = 64, min_samples: int = 32) -> None:
        if window < 1:
            raise ConfigError("q-error window must hold at least one error")
        if not 1 <= min_samples <= window:
            raise ConfigError(
                "q-error min_samples must be in [1, window]: a larger one never fires"
            )
        self.window = window
        self.min_samples = min_samples
        self._errors: deque[float] = deque()  # arrival order: evicts the oldest
        self._sorted: list[float] = []  # the same errors, ascending
        self.baseline: float | None = None

    def observe(self, estimate: float, truth: float) -> None:
        error = q_error(estimate, truth)
        self._errors.append(error)
        insort(self._sorted, error)
        if len(self._errors) > self.window:
            del self._sorted[bisect_left(self._sorted, self._errors.popleft())]

    def current(self) -> float:
        """The window's ``quantile``, read off the sorted window."""
        s = self._sorted
        if not s:
            return 1.0
        return linear_quantile(s, self.quantile)

    def check(self, ctx: "SchedulerContext") -> TriggerDecision:
        if len(self._errors) < self.min_samples:
            return TriggerDecision(False, "qerror:warming")
        q = self.current()
        if self.baseline is None:
            self.baseline = q  # the model's own healthy level
            return TriggerDecision(False, f"qerror_baseline={q:.1f}")
        if q >= self.baseline * self.degradation:
            return TriggerDecision(
                True,
                f"qerror_q{self.quantile:g}={q:.1f}(base={self.baseline:.1f})",
                "retrain",
            )
        return TriggerDecision(False, f"qerror_q{self.quantile:g}={q:.1f}")

    def reset(self, ctx: "SchedulerContext") -> None:
        """Clear window and baseline: the new model earns its own record."""
        self._errors.clear()
        self._sorted.clear()
        self.baseline = None


class DriftTrigger:
    """Runs a DDUp drift check every ``check_every`` queries.

    The detector's triage picks the action: any table scoring ``retrain``
    escalates the whole decision to a full retrain, otherwise the drift is
    handled with a fine-tune.  On detection the experience ``store`` is
    drift-tagged so subsequently ingested records carry the flag.
    """

    name = "drift"

    def __init__(self, detector, *, store, check_every: int = 100) -> None:
        self.detector = detector
        self.check_every = check_every
        self.store = store
        self._last_check = 0
        self.detections = 0

    def observe(self, estimate: float, truth: float) -> None:
        pass

    def check(self, ctx: "SchedulerContext") -> TriggerDecision:
        if ctx.queries - self._last_check < self.check_every:
            return TriggerDecision(False, "drift:idle")
        self._last_check = ctx.queries
        reports = self.detector.check()
        drifted = [r for r in reports if r.drifted]
        if not drifted:
            return TriggerDecision(False, "drift:clean")
        self.detections += 1
        self.store.mark_drift(True)
        action = (
            "retrain" if any(r.action == "retrain" for r in drifted) else "fine_tune"
        )
        tables = ",".join(sorted(r.table for r in drifted))
        return TriggerDecision(True, f"drift:{tables}", action)

    def reset(self, ctx: "SchedulerContext") -> None:
        self._last_check = ctx.queries


@dataclass
class SchedulerContext:
    """Virtual clock shared with the triggers."""

    queries: int = 0
    virtual_ms: float = 0.0


@dataclass(frozen=True)
class RetrainOutcome:
    """Result of one retraining attempt (returned by :meth:`step`)."""

    version_id: str
    parent: str
    trigger: str
    action: str  # "fine_tune" | "retrain"
    gate_passed: bool  # and so deployed at SHADOW
    at_query: int


class RetrainingScheduler(ServePolicy):
    """Composes triggers into a clone-retrain-gate-deploy policy.

    Parameters
    ----------
    registry, store:
        The :class:`~repro.lifecycle.registry.ModelRegistry` holding the
        champion lineage and the
        :class:`~repro.lifecycle.experience.ExperienceStore` providing
        training data.  The registry must have a champion before
        :meth:`step` can retrain.
    retrainer:
        ``retrainer(champion, store, action) -> challenger`` --
        MUST NOT mutate the champion (the registry's immutability check
        will catch it if it does): clone it with :func:`clone_model` and
        retrain the clone.
    triggers:
        Any mix of :class:`DriftTrigger`, :class:`QErrorTrigger`,
        :class:`CadenceTrigger` (or anything with
        ``observe``/``check``/``reset``).  A step retrains when *any*
        trigger fires; the action escalates to ``retrain`` if any firing
        trigger asks for it.
    gate:
        The :class:`~repro.lifecycle.gates.EvalGate` every challenger
        faces.  Build it with the registry's ``shared``: the challenger's
        registration digest is handed to it as the challenger's
        metric-memo key.
    deployment:
        The :class:`~repro.serve.deployment.DeploymentManager` serving the
        champion: a retrain clones the version it serves
        (``model_version``, a registry id), and a gate-passing challenger
        enters it at SHADOW via
        :meth:`~repro.serve.deployment.DeploymentManager.deploy`.  A
        failing challenger is registered (lineage keeps the failure) but
        never deployed.  Add the scheduler to that deployment's policies
        *last*: it reads what the sinks before it ingested.
    telemetry:
        The bus each retrain is counted and logged on.
    cooldown_queries:
        Minimum queries between retrainings, preventing trigger thrash.
    """

    def __init__(
        self,
        registry,
        store,
        retrainer,
        *,
        gate,
        deployment,
        telemetry,
        triggers=(),
        cooldown_queries: int = 50,
    ) -> None:
        self.registry = registry
        self.store = store
        self.retrainer = retrainer
        self.triggers = list(triggers)
        self.gate = gate
        self.deployment = deployment
        self.telemetry = telemetry
        self.cooldown_queries = cooldown_queries
        self.ctx = SchedulerContext()
        self._last_retrain_at: int | None = None
        self.outcomes: list[RetrainOutcome] = []
        self.retrains = 0
        self.gate_failures = 0
        self.deploys = 0

    # -- observations ----------------------------------------------------------

    def observe_qerror(self, estimate: float, truth: float) -> None:
        """Feed a per-query (estimate, true cardinality) pair to triggers."""
        for t in self.triggers:
            t.observe(estimate, truth)

    def on_decision(self, deployment, decision) -> None:
        """Feed the (estimate, true cardinality) pair to the triggers and
        advance the virtual clock by the served latency, so retraining
        fires at deterministic stream positions.

        The estimate is the one the learned optimizer's coster priced the
        query with, read back from its cardinality cache without a trace;
        only a query it did not plan at this estimator state and data
        version (a native or degraded serve) is estimated again."""
        if self.triggers:
            learned = deployment.learned
            estimator, coster = learned.estimator, learned.optimizer.coster
            estimate = None
            if coster.estimator is estimator and coster.cache is not None:
                estimate = coster.cache.peek(coster.cache_tag(), decision.query)
            if estimate is None:
                estimate = estimator.estimate(decision.query)
            self.observe_qerror(float(estimate), float(decision.cardinality))
        self.step(decision.latency_ms)

    # -- stepping --------------------------------------------------------------

    def step(self, latency_ms: float = 0.0, queries: int = 1) -> RetrainOutcome | None:
        """Advance virtual time and retrain when a trigger fires.

        Returns the :class:`RetrainOutcome` when a retraining happened,
        else None.
        """
        self.ctx.queries += queries
        self.ctx.virtual_ms += latency_ms
        if (
            self._last_retrain_at is not None
            and self.ctx.queries - self._last_retrain_at < self.cooldown_queries
        ):
            return None
        decisions = [t.check(self.ctx) for t in self.triggers]
        fired = [d for d in decisions if d.fired]
        if not fired:
            return None
        action = "retrain" if any(d.action == "retrain" for d in fired) else "fine_tune"
        reason = "+".join(d.reason for d in fired)
        return self._retrain(action=action, reason=reason)

    def _retrain(self, *, action: str, reason: str) -> RetrainOutcome:
        # Retrain from the model actually deployed: it may still be mid
        # promotion and not yet the registry champion.
        parent = self.deployment.model_version
        champion = self.registry.model(parent)
        snapshot = self.store.snapshot_id()
        self.telemetry.incr("lifecycle.retrains")
        self.telemetry.incr(f"lifecycle.action.{action}")
        self.telemetry.event(
            "retrain_started",
            parent=parent,
            action=action,
            reason=reason,
            at_query=self.ctx.queries,
            snapshot=snapshot,
        )
        challenger = self.retrainer(champion, self.store, action)
        if challenger is champion:
            raise ConfigError("retrainer returned the champion itself, not a clone")
        version = self.registry.register(
            challenger,
            parent=parent,
            trigger=f"{action}:{reason}",
            snapshot_id=snapshot,
            created_at_ms=self.ctx.virtual_ms,
        )
        report = self.gate.evaluate(
            champion, challenger, challenger_fingerprint=version.fingerprint
        )
        gate_passed = report.passed
        self.registry.record_gate(version.version_id, report)
        if gate_passed:
            self.deployment.deploy(
                challenger,
                version=version.version_id,
                reason=f"gate_passed:{reason}",
            )
            self.deploys += 1
        else:
            self.gate_failures += 1
        self.retrains += 1
        self._last_retrain_at = self.ctx.queries
        self.store.mark_drift(False)  # drift episode handled
        for t in self.triggers:
            t.reset(self.ctx)
        outcome = RetrainOutcome(
            version_id=version.version_id,
            parent=parent,
            trigger=reason,
            action=action,
            gate_passed=gate_passed,
            at_query=self.ctx.queries,
        )
        self.outcomes.append(outcome)
        self.telemetry.incr(
            "lifecycle.gate_passed" if gate_passed else "lifecycle.gate_failed"
        )
        self.telemetry.event(
            "retrain_finished",
            version=version.version_id,
            parent=parent,
            action=action,
            gate_passed=gate_passed,
            deployed=gate_passed,
            at_query=self.ctx.queries,
        )
        return outcome

    # -- reporting -------------------------------------------------------------

    def stats(self) -> dict[str, float]:
        return {
            "queries": self.ctx.queries,
            "virtual_ms": round(self.ctx.virtual_ms, 3),
            "retrains": self.retrains,
            "gate_failures": self.gate_failures,
            "deploys": self.deploys,
            "drift_detections": sum(
                t.detections for t in self.triggers if isinstance(t, DriftTrigger)
            ),
        }
