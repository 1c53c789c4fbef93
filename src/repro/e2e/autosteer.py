"""AutoSteer [1]: Bao with automated hint-set discovery.

AutoSteer removes Bao's hand-curated arm list: it probes which individual
operator switches actually *change* the optimizer's plan on a probe
workload, then builds arms from the impactful switches and their pairwise
combinations -- minimizing integration effort for new systems.
"""

from __future__ import annotations

from dataclasses import fields

from repro.e2e.bao import BaoOptimizer
from repro.optimizer.hints import HintSet
from repro.optimizer.planner import Optimizer
from repro.sql.query import Query

__all__ = ["discover_hint_sets", "AutoSteerOptimizer"]


#: cap on discovered arms (Bao's hand-curated list is this long too)
MAX_ARMS = 12


def discover_hint_sets(optimizer: Optimizer, probe_queries: list[Query]) -> list[HintSet]:
    """Find operator switches that change plans, build arms from them.

    A switch is *impactful* when disabling it alters the plan signature of
    at least one probe query.  Arms = default + each impactful single
    switch + each valid pair of impactful switches, capped at ``MAX_ARMS``.
    """
    if not probe_queries:
        raise ValueError("need at least one probe query")
    # Every single-flag switch is a valid hint set on its own (another join
    # / scan method stays enabled), so one sweep per probe query plans the
    # default and all the switches together.
    flag_names = [f.name for f in fields(HintSet)]
    probes = [HintSet.default()] + [HintSet(**{flag: False}) for flag in flag_names]
    changed: set[str] = set()
    for q in probe_queries:
        default, *switched = optimizer.plan_arms(q, probes)
        # arms that agree share one Plan object
        changed.update(
            flag for flag, plan in zip(flag_names, switched) if plan is not default
        )
    impactful = [flag for flag in flag_names if flag in changed]

    arms: list[HintSet] = [HintSet.default()]
    for flag in impactful:
        arms.append(HintSet(**{flag: False}))
    for i in range(len(impactful)):
        for j in range(i + 1, len(impactful)):
            if len(arms) >= MAX_ARMS:
                break
            try:
                arms.append(HintSet(**{impactful[i]: False, impactful[j]: False}))
            except ValueError:
                continue
    return arms[:MAX_ARMS]


class AutoSteerOptimizer(BaoOptimizer):
    """Bao with arms discovered automatically from a probe workload."""

    def __init__(
        self, optimizer: Optimizer, probe_queries: list[Query], *, seed: int = 0
    ) -> None:
        arms = discover_hint_sets(optimizer, probe_queries)
        super().__init__(optimizer, arms=arms, seed=seed)
        self.name = "autosteer"
        self.discovered_arms = arms
