"""The representative drivers the tutorial demonstrates (§3.2).

- :class:`CardinalityInjectionDriver`: deploys *any* learned cardinality
  estimator by pushing all sub-query cardinalities in one batch before
  planning -- "the same driver could support any cardinality estimation
  method";
- :class:`BaoDriver` / :class:`LeroDriver`: the two end-to-end optimizer
  drivers, assembled purely from push/pull operators: Bao pushes hint
  sets, Lero pushes cardinality scales, both pull the resulting candidate
  plans; that sweep is the exploration strategy of a
  :class:`repro.core.framework.LearnedOptimizer`, which selects with the
  driver's risk model and records the pulled latencies.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.cardest.base import BaseCardinalityEstimator, sanitize_estimate
from repro.core.framework import CandidatePlan, LearnedOptimizer
from repro.costmodel.features import PlanFeaturizer
from repro.e2e.exploration import LERO_FACTORS, _dedup
from repro.e2e.risk_models import PairwisePlanComparator, TreeConvLatencyModel
from repro.engine.simulator import ExecutionResult
from repro.optimizer.hints import HintSet
from repro.pilotscope.driver import Driver
from repro.sql.query import Query

__all__ = ["CardinalityInjectionDriver", "BaoDriver", "LeroDriver"]


class CardinalityInjectionDriver(Driver):
    """Replace the cardinality estimator via batch injection."""

    injection_type = "cardinality"
    name = "cardinality_injection"

    def __init__(self, estimator) -> None:
        super().__init__()
        if not isinstance(estimator, BaseCardinalityEstimator):
            raise TypeError("estimator must be a BaseCardinalityEstimator")
        self.estimator = estimator

    def algo(self, query: Query) -> ExecutionResult:
        interactor = self._require_started()
        with interactor.open_session() as session:
            subqueries = session.pull_subqueries(query)
            cards = {
                sub.to_sql(): sanitize_estimate(self.estimator.estimate(sub))
                for sub in subqueries
            }
            session.push_cardinalities(cards)
            return session.pull_execution(session.pull_plan(query))

    def background_update(self) -> None:
        """Refresh the estimator against the current data."""
        self.estimator.refresh()


class _SteeringDriverBase(Driver):
    """Shared plumbing for the Bao and Lero drivers.

    The driver is its own :class:`PlanExplorationStrategy`: ``candidates``
    is the subclass's push/pull sweep on the session it currently holds
    open.
    """

    injection_type = "query_optimizer"

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self.seed = seed
        self.learned: LearnedOptimizer | None = None  # set in _prepare
        self._session = None  # set while _open_session is entered

    @property
    def risk_model(self):
        return self.learned.risk_model

    def _prepare(self) -> None:
        # Featurization metadata (schema, statistics) is catalog
        # information pulled from the attached database.
        host = self.interactor
        featurizer = PlanFeaturizer(host.db, coster=host.optimizer.coster)  # type: ignore[attr-defined]
        self.learned = LearnedOptimizer(
            self,
            self._build_risk_model(featurizer),
            name=self.name,
        )

    def _build_risk_model(self, featurizer: PlanFeaturizer):
        raise NotImplementedError

    def candidates(self, query: Query) -> list[CandidatePlan]:
        raise NotImplementedError

    @contextmanager
    def _open_session(self):
        with self._require_started().open_session() as session:
            self._session = session
            try:
                yield session
            finally:
                self._session = None

    def algo(self, query: Query) -> ExecutionResult:
        with self._open_session() as session:
            best = self.learned.choose_plan(query)
            result = session.pull_execution(best.plan)
        self.learned.record_feedback(query, best, result.latency_ms)
        return result

    def background_update(self) -> None:
        """The driver's one refit, run by ``enable_background_updates``."""
        self.learned.retrain()


class BaoDriver(_SteeringDriverBase):
    """Bao through PilotScope: push hint sets, pull candidate plans."""

    name = "bao_driver"

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed=seed)
        self.arms = HintSet.bao_arms()

    def _build_risk_model(self, featurizer: PlanFeaturizer):
        return TreeConvLatencyModel(featurizer, thompson=True, seed=self.seed)

    def candidates(self, query: Query) -> list[CandidatePlan]:
        session, out = self._session, []
        for i, arm in enumerate(self.arms):
            session.reset_pushes()
            session.push_hint_set(arm)
            plan = session.pull_plan(query)
            out.append(
                CandidatePlan(plan=plan, source="default" if i == 0 else arm.name())
            )
        return _dedup(out)


class LeroDriver(_SteeringDriverBase):
    """Lero through PilotScope: push cardinality scales, pull plans."""

    name = "lero_driver"

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed=seed)
        self.factors = LERO_FACTORS

    def _build_risk_model(self, featurizer: PlanFeaturizer):
        return PairwisePlanComparator(featurizer, seed=self.seed)

    def candidates(self, query: Query) -> list[CandidatePlan]:
        session, out = self._session, []
        for f in self.factors:
            session.reset_pushes()
            if f != 1.0:
                session.push_cardinality_scale(f)
            plan = session.pull_plan(query)
            out.append(
                CandidatePlan(
                    plan=plan, source="default" if f == 1.0 else f"scale={f:g}"
                )
            )
        return _dedup(out)

    def collect_training_data(self, queries: list[Query]) -> None:
        """Lero's pair-collection phase: execute candidates per query."""
        with self._open_session() as session:
            for query in queries:
                candidates = self.candidates(query)[:3]
                if len(candidates) < 2:
                    continue
                for cand in candidates:
                    result = session.pull_execution(cand.plan)
                    self.risk_model.observe(cand, result.latency_ms)

    def train(self) -> None:
        self.risk_model.retrain()
