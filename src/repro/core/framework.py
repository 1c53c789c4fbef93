"""The unified end-to-end learned-optimizer framework (paper §2.2).

    "For the input query Q, a learned query optimizer first generates a set
    of candidate plans using some plan exploration strategy.  Then, a
    learned risk model is applied for plan selection."

This module encodes that two-step structure directly:

- :class:`PlanExplorationStrategy` -- produces candidate plans for a query
  (hint-set steering for Bao, cardinality scaling for Lero, learned plan
  search for Neo/Balsa/LOGER, DP-with-model for LEON, leading hints for
  HyperQO);
- :class:`RiskModel` -- scores candidates and learns from execution
  feedback (pointwise latency regression for Neo/Bao, pairwise preference
  for Lero/LEON);
- :class:`LearnedOptimizer` -- the generic loop combining the two.  It is
  the only class that owns choose -> feedback: every system in
  :mod:`repro.e2e` and both PilotScope steering drivers are an
  ``(exploration, risk_model)`` pair handed to it.  The experience itself
  -- the windowed (plan, latency) pairs a refit trains on -- is the risk
  model's; the loop keeps no second copy.
- :class:`RetrainCadence` -- *when* a model refits: in place, every
  ``every`` feedbacks it has recorded, set where the stack is built.

A search-based system fills both slots with one model: the network that
guides the exploration (Neo's value net, LEON's comparator) is the risk
model refit from feedback, and its strategy returns the single plan the
search produced.  The E11 ablation benchmark sweeps the pairs.

:class:`PlannerModel` is the degenerate case -- no exploration, no risk
model: a plain :class:`~repro.optimizer.planner.Optimizer` on the same
``choose_plan`` / ``record_feedback`` surface, so the native arm of a
comparison, a risk-bounded planner and an estimator-steered planner deploy
through the same staged machinery as any learned model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

from repro.core.interfaces import Retrainable, ServePolicy
from repro.engine.plans import Plan
from repro.sql.query import Query

if TYPE_CHECKING:
    from repro.optimizer.planner import Optimizer

__all__ = [
    "OBSERVATION_WINDOW",
    "CandidatePlan",
    "PlannerModel",
    "PlanExplorationStrategy",
    "RiskModel",
    "LearnedOptimizer",
    "RetrainCadence",
]

# Bao's sliding window: a learned arm keeps (and refits on) only its most
# recent observations, so one retrain costs O(window), not O(queries served).
OBSERVATION_WINDOW = 2000


@dataclass(frozen=True)
class CandidatePlan:
    """A candidate produced by an exploration strategy.

    ``source`` identifies how it was generated (e.g. the hint-set name or
    the cardinality scale factor) -- kept for diagnostics and for arms-style
    risk models that score sources rather than plans.
    """

    plan: Plan
    source: str


class PlannerModel:
    """A plain planner on the learned-optimizer surface.

    ``choose_plan`` is ``optimizer.plan``; feedback is discarded, so the
    model carries no per-query state and a registered version's fingerprint
    stays stable while it serves.  What there is to learn lives in the
    optimizer's cardinality estimator, which :attr:`estimator` exposes:
    retraining this model means refitting that estimator on a clone.
    """

    def __init__(self, optimizer: Optimizer, *, name: str = "planner") -> None:
        self.optimizer = optimizer
        self.name = name

    @property
    def estimator(self):
        return self.optimizer.estimator

    def choose_plan(self, query: Query) -> CandidatePlan:
        return CandidatePlan(plan=self.optimizer.plan(query), source=self.name)

    def record_feedback(
        self, query: Query, candidate: CandidatePlan, latency_ms: float
    ) -> None:
        pass


@runtime_checkable
class PlanExplorationStrategy(Protocol):
    """Generates the candidate set for a query."""

    def candidates(self, query: Query) -> list[CandidatePlan]:
        ...


@runtime_checkable
class RiskModel(Retrainable, Protocol):
    """Scores candidates (lower = better) and learns from feedback.

    Extends :class:`repro.core.interfaces.Retrainable`: the ``retrain``
    half is the shared surface the lifecycle scheduler drives, so a risk
    model (or a whole :class:`LearnedOptimizer`) can be cloned and refit
    without the scheduler knowing which strategy it is.
    """

    def scores(self, candidates: Sequence[CandidatePlan]) -> list[float]:
        ...

    def observe(self, candidate: CandidatePlan, latency_ms: float) -> None:
        ...


class LearnedOptimizer:
    """Generic explore-then-select learned optimizer.

    The subclasses / instantiations differ only in which strategy and risk
    model they plug in.  Feedback only records, counting :attr:`feedbacks`;
    when to refit is a :class:`RetrainCadence`'s call.
    """

    def __init__(
        self,
        exploration: PlanExplorationStrategy,
        risk_model: RiskModel,
        *,
        name: str = "learned",
    ) -> None:
        self.exploration = exploration
        self.risk_model = risk_model
        self.name = name
        self.feedbacks = 0

    def choose_plan(self, query: Query) -> CandidatePlan:
        """Explore candidates and pick the risk model's favourite."""
        candidates = self.exploration.candidates(query)
        if not candidates:
            raise ValueError(f"exploration produced no candidates for {query}")
        scores = self.risk_model.scores(candidates)
        if len(scores) != len(candidates):
            raise RuntimeError(
                f"risk model returned {len(scores)} scores for "
                f"{len(candidates)} candidates"
            )
        best = min(range(len(candidates)), key=lambda i: scores[i])
        return candidates[best]

    def record_feedback(
        self, query: Query, candidate: CandidatePlan, latency_ms: float
    ) -> None:
        """Feed an execution outcome back into the risk model."""
        self.risk_model.observe(candidate, latency_ms)
        self.feedbacks += 1

    def retrain(self) -> None:
        """Refit the risk model; the optimizer itself is :class:`Retrainable`."""
        self.risk_model.retrain()


class RetrainCadence(ServePolicy):
    """Refit ``model`` in place once it has recorded ``every`` more feedbacks.

    ``model`` keeps a ``feedbacks`` count and refits on ``retrain()`` (a
    :class:`LearnedOptimizer`, a :class:`repro.regression.PerfGuard`).
    Build the cadence on it, not on a wrapper serving it, so a decision
    that fed nothing back does not move it.  A deployment or an
    :class:`repro.e2e.OptimizationLoop` ticks it as a policy, an expert
    bootstrap once per demonstration.  The gated path -- clone, gate,
    SHADOW -- is :class:`repro.lifecycle.RetrainingScheduler`.
    """

    def __init__(self, model, *, every: int) -> None:
        self.model = model
        self.every = every
        self._refit_at = model.feedbacks

    def tick(self) -> None:
        """Refit if ``every`` feedbacks arrived since the last refit."""
        if self.model.feedbacks - self._refit_at >= self.every:
            self.retrain()

    def retrain(self) -> None:
        """Refit now; the count starts again from here."""
        self.model.retrain()
        self._refit_at = self.model.feedbacks

    def on_decision(self, deployment, decision) -> None:
        self.tick()
