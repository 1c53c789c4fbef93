"""PerfGuard [18]: a learned pairwise regression guard.

A pairwise comparison model (graph/tree-structured in the paper; our
shared tree-conv comparator) is trained on (candidate, native, outcome)
pairs from the deployment's own feedback stream and vetoes any candidate
predicted to be slower than the native plan with probability above
0.45 -- "deploying ML-for-systems without performance
regressions, almost".
"""

from __future__ import annotations

from repro.core.framework import CandidatePlan
from repro.costmodel.features import PlanFeaturizer, plan_to_tree_arrays
from repro.e2e.risk_models import PairwisePlanComparator
from repro.engine.plans import Plan
from repro.sql.query import Query

__all__ = ["PerfGuard"]


class PerfGuard:
    """Pairwise veto guard; use as an OptimizationLoop guard.  :meth:`record`
    only records; a ``RetrainCadence`` on the guard calls :meth:`retrain`."""

    def __init__(self, featurizer: PlanFeaturizer) -> None:
        """Vetoes when P(candidate slower than native) exceeds 0.45 --
        a little more conservative than vetoing whenever the model leans
        negative."""
        self.featurizer = featurizer
        self.comparator = PairwisePlanComparator(featurizer, seed=0)
        self.feedbacks = 0
        self.interventions = 0
        self.decisions = 0

    def __call__(
        self, query: Query, candidate: CandidatePlan, native_plan: Plan
    ) -> CandidatePlan:
        self.decisions += 1
        if candidate.plan.signature() == native_plan.signature():
            return candidate
        p_candidate_faster = self.comparator.compare(candidate.plan, native_plan)
        if p_candidate_faster < 1.0 - 0.45:
            self.interventions += 1
            return CandidatePlan(plan=native_plan, source="perfguard")
        return candidate

    def record(
        self,
        query: Query,
        candidate: CandidatePlan,
        latency_ms: float,
        native_latency_ms: float,
    ) -> None:
        """Every executed decision yields a labelled (candidate, native)
        pair -- the native latency is always measured by the loop."""
        self.comparator.record(
            query.to_sql(),
            plan_to_tree_arrays(candidate.plan, self.featurizer),
            latency_ms,
        )
        self.feedbacks += 1

    def retrain(self) -> None:
        """Refit the comparator on every pair recorded so far."""
        self.comparator.retrain()

    def record_native(
        self, query: Query, native_plan: Plan, native_latency_ms: float
    ) -> None:
        """Record the native plan's measured latency for the same query."""
        self.comparator.record(
            query.to_sql(),
            plan_to_tree_arrays(native_plan, self.featurizer),
            native_latency_ms,
        )

    @property
    def intervention_rate(self) -> float:
        return self.interventions / self.decisions if self.decisions else 0.0
