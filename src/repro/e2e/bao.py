"""Bao [37]: steering the native optimizer with learned hint selection."""

from __future__ import annotations

from repro.core.framework import LearnedOptimizer
from repro.costmodel.features import PlanFeaturizer
from repro.e2e.exploration import HintSetExploration
from repro.e2e.risk_models import TreeConvLatencyModel
from repro.optimizer.hints import HintSet
from repro.optimizer.planner import Optimizer

__all__ = ["BaoOptimizer"]


class BaoOptimizer(LearnedOptimizer):
    """Bao: hint-set arms + tree-conv latency model + Thompson sampling.

    The native optimizer is steered by enabling/disabling operator families
    (the arms); a tree-convolution model trained on observed latencies
    predicts each arm's plan latency, and Thompson sampling over a
    bootstrap ensemble trades exploration against exploitation.  Before
    enough feedback accumulates the default (un-steered) plan is used.
    """

    def __init__(
        self,
        optimizer: Optimizer,
        arms: list[HintSet] | None = None,
        *,
        seed: int = 0,
    ) -> None:
        featurizer = PlanFeaturizer(optimizer.db, coster=optimizer.coster)
        super().__init__(
            exploration=HintSetExploration(optimizer, arms),
            risk_model=TreeConvLatencyModel(featurizer, thompson=True, seed=seed),
            name="bao",
        )
