"""Lero [79]: learning-to-rank over cardinality-scaled candidate plans."""

from __future__ import annotations

from repro.core.framework import LearnedOptimizer
from repro.costmodel.features import PlanFeaturizer
from repro.e2e.exploration import CardinalityScalingExploration
from repro.e2e.risk_models import PairwisePlanComparator
from repro.optimizer.planner import Optimizer

__all__ = ["LeroOptimizer"]


class LeroOptimizer(LearnedOptimizer):
    """Lero: cardinality-scaling exploration + pairwise comparator.

    Candidates come from re-planning under scaled cardinality estimates
    (the tuning knob); a pairwise classifier learns which of two plans is
    faster from executed pairs, and the candidate ranked best (most
    pairwise wins, equivalently lowest learned score) is executed.
    """

    def __init__(self, optimizer: Optimizer, *, seed: int = 0) -> None:
        featurizer = PlanFeaturizer(optimizer.db, coster=optimizer.coster)
        super().__init__(
            exploration=CardinalityScalingExploration(optimizer),
            risk_model=PairwisePlanComparator(featurizer, seed=seed),
            name="lero",
        )

    def train_offline(self, queries, executor) -> int:
        """Lero's pair-collection phase: execute up to three candidate
        plans per training query so the comparator sees labelled same-query
        pairs.  ``executor(plan) -> latency_ms``.  Returns the number of
        pairs available after training."""
        for query in queries:
            candidates = self.exploration.candidates(query)[:3]
            if len(candidates) < 2:
                continue
            for cand in candidates:
                self.risk_model.observe(cand, executor(cand.plan))
        self.risk_model.retrain()
        return self.risk_model.n_pairs
