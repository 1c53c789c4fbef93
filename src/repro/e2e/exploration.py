"""Plan exploration strategies (the first half of the §2.2 framework)."""

from __future__ import annotations

from repro.core.framework import CandidatePlan
from repro.core.interfaces import ScaledCardinalities
from repro.engine.plans import Plan
from repro.joinorder.env import plan_from_order
from repro.optimizer.hints import HintSet
from repro.optimizer.planner import Optimizer
from repro.sql.query import Query

__all__ = [
    "HintSetExploration",
    "CardinalityScalingExploration",
    "LeadingTableExploration",
]


def _dedup(candidates: list[CandidatePlan]) -> list[CandidatePlan]:
    seen: set[str] = set()
    out = []
    for c in candidates:
        sig = c.plan.signature()
        if sig not in seen:
            seen.add(sig)
            out.append(c)
    return out


class HintSetExploration:
    """Bao's strategy [37]: steer the native optimizer with hint-set arms."""

    def __init__(self, optimizer: Optimizer, arms: list[HintSet] | None = None) -> None:
        self.optimizer = optimizer
        self.arms = arms if arms is not None else HintSet.bao_arms()
        if not self.arms:
            raise ValueError("need at least one hint-set arm")

    def candidates(self, query: Query) -> list[CandidatePlan]:
        plans = self.optimizer.plan_arms(query, self.arms)
        return _dedup(
            [
                CandidatePlan(plan=plan, source="default" if i == 0 else arm.name())
                for i, (arm, plan) in enumerate(zip(self.arms, plans))
            ]
        )


class CardinalityScalingExploration:
    """Lero's strategy [79]: scale estimated cardinalities by factors."""

    def __init__(
        self,
        optimizer: Optimizer,
        factors: tuple[float, ...] = (1.0, 0.01, 0.1, 10.0, 100.0),
    ) -> None:
        """Put ``1.0`` first so the native plan survives deduplication as
        the ``"default"`` candidate (warm-up safety depends on it)."""
        if not factors:
            raise ValueError("need at least one scaling factor")
        self.optimizer = optimizer
        self.factors = factors

    def candidates(self, query: Query) -> list[CandidatePlan]:
        out = []
        for f in self.factors:
            if f == 1.0:
                opt = self.optimizer
                source = "default"
            else:
                opt = self.optimizer.with_estimator(
                    ScaledCardinalities(self.optimizer.estimator, f)
                )
                source = f"scale={f:g}"
            out.append(CandidatePlan(plan=opt.plan(query), source=source))
        return _dedup(out)


class LeadingTableExploration:
    """HyperQO's strategy [72]: leading hints forcing the first table."""

    def __init__(self, optimizer: Optimizer, max_leading: int = 6) -> None:
        self.optimizer = optimizer
        self.max_leading = max_leading

    def candidates(self, query: Query) -> list[CandidatePlan]:
        out = [CandidatePlan(plan=self.optimizer.plan(query), source="default")]
        if query.n_tables >= 2:
            for table in query.tables[: self.max_leading]:
                plan = self._leading_plan(query, table)
                if plan is not None:
                    out.append(CandidatePlan(plan=plan, source=f"leading={table}"))
        return _dedup(out)

    def _leading_plan(self, query: Query, leading: str) -> Plan | None:
        """Greedy left-deep plan forced to start at ``leading``."""
        coster = self.optimizer.coster
        order = [leading]
        remaining = set(query.tables) - {leading}
        adj: dict[str, set[str]] = {t: set() for t in query.tables}
        for j in query.joins:
            adj[j.left.table].add(j.right.table)
            adj[j.right.table].add(j.left.table)
        while remaining:
            frontier = sorted(
                t for t in remaining if adj[t] & set(order)
            )
            if not frontier:
                return None
            # Greedy: next table minimizing the intermediate estimate.
            best = min(
                frontier,
                key=lambda t: coster.subquery_cardinality(
                    query, frozenset(order + [t])
                ),
            )
            order.append(best)
            remaining.discard(best)
        return plan_from_order(query, order, coster)
