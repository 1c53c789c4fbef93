"""Serving-side wiring for promoted rewrites.

:class:`RewritingOptimizer` exposes the repo's learned-optimizer surface
(``choose_plan`` / ``record_feedback``), so the rewrite subsystem deploys
exactly like any model: through :class:`~repro.e2e.loop.OptimizationLoop`,
or staged SHADOW -> CANARY -> LIVE by a
:class:`~repro.serve.deployment.DeploymentManager`.  For each query it
consults the leaderboard; a servable promoted rewrite is planned (by the
leaderboard's optimizer, whose statistics cover any attached values
relations) and returned with source ``rewrite:<rule>``; otherwise the
query falls through to an optional inner learned optimizer, or to a plain
native plan.

Plan-cache safety: the deployment manager's :class:`~repro.optimizer.
plancache.PlanCache` fronts only its *native* path and keys on the
original query's ``template_key``; rewritten queries have different
template keys by construction (structure changed), so a promoted rewrite
can never be conflated with a cached native plan of the original.

:class:`RewriteDriver` is the same idea as a PilotScope driver: pull a
plan for the rewritten query through the session's push/pull operators and
execute it.  Build the leaderboard over the interactor's own optimizer so
values-relation statistics are registered where ``pull_plan`` plans.
"""

from __future__ import annotations

from repro.core.framework import CandidatePlan
from repro.engine.simulator import ExecutionResult
from repro.pilotscope.driver import Driver
from repro.sql.query import Query

from repro.rewrite.leaderboard import PromotionLeaderboard

__all__ = ["RewritingOptimizer", "RewriteDriver"]


class RewritingOptimizer:
    """A learned optimizer that serves oracle-validated promoted rewrites."""

    name = "rewrite"

    def __init__(self, leaderboard: PromotionLeaderboard) -> None:
        """Queries with no promoted rewrite are served with the leaderboard
        optimizer's native plan.

        The full candidate/validate/promote pipeline runs the first time
        each query is seen (submission is idempotent)."""
        self.leaderboard = leaderboard
        self.rewrites_served = 0

    def choose_plan(self, query: Query) -> CandidatePlan:
        self.leaderboard.submit(query)
        hit = self.leaderboard.promoted_for(query)
        if hit is not None:
            candidate, entry = hit
            plan = self.leaderboard.optimizer.plan(candidate.rewritten)
            self.rewrites_served += 1
            return CandidatePlan(plan=plan, source=f"rewrite:{entry.rule}")
        return CandidatePlan(
            plan=self.leaderboard.optimizer.plan(query), source="native"
        )

    def record_feedback(
        self, query: Query, candidate: CandidatePlan, latency_ms: float
    ) -> None:
        if candidate.source.startswith("rewrite:"):
            rule = candidate.source.split(":", 1)[1]
            self.leaderboard.observe_served(query, rule, latency_ms)


class RewriteDriver(Driver):
    """PilotScope driver serving promoted rewrites via push/pull operators."""

    injection_type = "query_rewrite"
    name = "rewrite"

    def __init__(self, leaderboard: PromotionLeaderboard) -> None:
        super().__init__()
        self.leaderboard = leaderboard
        self.rewrites_served = 0

    def algo(self, query: Query) -> ExecutionResult:
        interactor = self._require_started()
        self.leaderboard.submit(query)
        hit = self.leaderboard.promoted_for(query)
        target = query
        if hit is not None:
            target = hit[0].rewritten
            self.rewrites_served += 1
        with interactor.open_session() as session:
            plan = session.pull_plan(target)
            result = session.pull_execution(plan)
        if hit is not None:
            self.leaderboard.observe_served(
                query, hit[1].rule, result.latency_ms
            )
        return result
