"""The execute-and-learn loop driving any learned optimizer.

:class:`OptimizationLoop` runs a workload through a learned optimizer
against the execution simulator, feeding latencies back after every query
-- the deployment loop PilotScope's drivers implement, factored out so the
benchmarks, the regression-elimination plugins and the middleware all
share it.
"""

from __future__ import annotations

import numpy as np

from repro.core.framework import CandidatePlan
from repro.core.interfaces import Decision
from repro.engine.simulator import ExecutionSimulator
from repro.optimizer.planner import Optimizer
from repro.sql.query import Query

__all__ = ["OptimizationLoop"]


class OptimizationLoop:
    """Drives a learned optimizer with execution feedback.

    ``learned`` must expose ``choose_plan(query)`` and
    ``record_feedback(query, candidate, latency_ms)`` (the
    :class:`repro.core.framework.LearnedOptimizer` surface).
    """

    def __init__(
        self,
        learned,
        simulator: ExecutionSimulator,
        native: Optimizer,
        *,
        guard=None,
        policies=(),
    ) -> None:
        """``guard`` optionally wraps plan selection (see
        :mod:`repro.regression`): it is called as
        ``guard(query, candidate, native_plan) -> candidate`` and may swap
        in a safer plan, then fed ``record`` and ``record_native``.

        The loop stays alive when the learned component or the guard
        throws: the query is served with the native plan (source
        ``"native:fallback"``) or the guard is treated as abstaining, and
        the failure is counted in :attr:`fallbacks` / :attr:`guard_errors`.

        ``policies`` run as in a :class:`repro.serve.DeploymentManager`:
        each one's ``on_decision(loop, decision)`` after every query, in
        list order (``attach`` / ``on_transition`` never run).  A
        :class:`repro.lifecycle.ExperienceStore` files these ``"offline"``
        decisions under ``kind="episode"``."""
        self.learned = learned
        self.simulator = simulator
        self.native = native
        self.guard = guard
        self.policies = list(policies)
        self.results: list[Decision] = []
        self.fallbacks = 0  # learned failures served natively
        self.guard_errors = 0  # contained guard exceptions

    def run_query(self, query: Query) -> Decision:
        """One query through choose -> guard -> execute -> feedback; the
        native plan is always executed too, so every decision carries its
        baseline (stage ``"offline"``: no rollout decides who serves)."""
        try:
            candidate = self.learned.choose_plan(query)
        except Exception:
            self.fallbacks += 1
            candidate = None
        native_plan = self.native.plan(query)
        if candidate is None:
            candidate = CandidatePlan(plan=native_plan, source="native:fallback")
        if self.guard is not None:
            try:
                candidate = self.guard(query, candidate, native_plan)
            except Exception:
                self.guard_errors += 1  # guard abstains, candidate stands
        executed = self.simulator.execute(candidate.plan)
        latency = executed.latency_ms
        native_latency = self.simulator.execute(native_plan).latency_ms
        learned = candidate.source != "native:fallback"
        if learned:
            self.learned.record_feedback(query, candidate, latency)
        recorded = self.guard is not None and self._guard_feedback(
            self.guard.record, query, candidate, latency, native_latency
        )
        result = Decision(
            stage="offline",
            plan_source=candidate.source,
            latency_ms=latency,
            cardinality=executed.cardinality,
            query=query,
            served_learned=learned,
            native_latency_ms=native_latency,
        )
        self.results.append(result)
        # Before the guard's native-plan record: a cadence refitting the
        # guard trains on what it held when ``record`` returned.
        for policy in self.policies:
            policy.on_decision(self, result)
        if recorded and candidate.plan.signature() != native_plan.signature():
            self._guard_feedback(self.guard.record_native, query, native_plan, native_latency)
        return result

    def _guard_feedback(self, record, *args) -> bool:
        """True once the guard took the feedback; a raise loses it, not the query."""
        try:
            record(*args)
        except Exception:
            self.guard_errors += 1  # feedback lost, loop keeps serving
            return False
        return True

    def run(self, queries: list[Query]) -> list[Decision]:
        return [self.run_query(q) for q in queries]

    # -- summaries ---------------------------------------------------------------

    def summary(self, tail: int) -> dict[str, float]:
        """Aggregate workload statistics over the last ``tail`` queries,
        i.e. after warm-up."""
        results = self.results[-tail:]
        if not results:
            raise ValueError("loop has not executed any query")
        lat = np.array([r.latency_ms for r in results])
        nat = np.array([r.native_latency_ms for r in results])
        reg = lat / np.maximum(nat, 1e-9)
        return {
            "total_latency_ms": float(lat.sum()),
            "native_total_latency_ms": float(nat.sum()),
            "workload_speedup": float(nat.sum() / max(lat.sum(), 1e-9)),
            "p50_latency_ms": float(np.percentile(lat, 50)),
            "p99_latency_ms": float(np.percentile(lat, 99)),
            "native_p99_latency_ms": float(np.percentile(nat, 99)),
            "n_regressions": int((reg > 1.1).sum()),
            "worst_regression": float(reg.max()),
            "n_queries": len(results),
        }
