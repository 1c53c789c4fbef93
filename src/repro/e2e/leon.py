"""LEON [4]: ML-aided dynamic programming.

LEON keeps the native optimizer's DP enumeration but lets a learned
pairwise comparison model influence which sub-plans survive: each DP
subset keeps the top two candidates ranked by a blend of estimated cost
and the comparator's learned preference, and the final plan is the
comparator's favourite among the full-set candidates.  Periodically the
runner-up is executed out-of-band beside the favourite to keep generating
labelled pairs (LEON's exploration).
"""

from __future__ import annotations

from repro.core.framework import LearnedOptimizer
from repro.costmodel.features import PlanFeaturizer
from repro.e2e.exploration import TopKDPExploration
from repro.e2e.risk_models import PairwisePlanComparator
from repro.optimizer.planner import Optimizer

__all__ = ["LeonOptimizer"]


class LeonOptimizer(LearnedOptimizer):
    """DP enumeration with learned pairwise sub-plan ranking."""

    def __init__(
        self,
        optimizer: Optimizer,
        *,
        shadow_executor,
        seed: int = 0,
    ) -> None:
        """``shadow_executor(plan) -> latency_ms`` executes the DP
        runner-up out-of-band on explore queries, so the comparator
        receives labelled same-query pairs (LEON's exploration
        executions)."""
        featurizer = PlanFeaturizer(optimizer.db, coster=optimizer.coster)
        comparator = PairwisePlanComparator(featurizer, seed=seed)
        super().__init__(
            exploration=TopKDPExploration(
                optimizer,
                comparator,
                shadow_executor=shadow_executor,
            ),
            risk_model=comparator,
            name="leon",
        )
        self.optimizer = optimizer
