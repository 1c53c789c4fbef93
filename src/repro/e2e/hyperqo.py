"""HyperQO [72]: leading hints + ensemble prediction + variance filtering."""

from __future__ import annotations

from repro.core.framework import LearnedOptimizer
from repro.costmodel.features import PlanFeaturizer
from repro.e2e.exploration import LeadingTableExploration
from repro.e2e.risk_models import EnsembleLatencyModel
from repro.optimizer.planner import Optimizer

__all__ = ["HyperQOOptimizer"]


class HyperQOOptimizer(LearnedOptimizer):
    """HyperQO: leading-table hints explore join orders; a multi-head
    latency ensemble scores candidates and *filters out* high-variance
    (risky) plans before picking the best average -- the hybrid
    cost-based/learning-based selection of [72]."""

    def __init__(
        self,
        optimizer: Optimizer,
        *,
        seed: int = 0,
    ) -> None:
        featurizer = PlanFeaturizer(optimizer.db, coster=optimizer.coster)
        super().__init__(
            exploration=LeadingTableExploration(optimizer),
            risk_model=EnsembleLatencyModel(featurizer, seed=seed),
            name="hyperqo",
        )
        self.optimizer = optimizer
