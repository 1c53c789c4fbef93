"""Core abstractions: the tutorial's unified view of learned query optimizers.

Section 2.2 of the paper observes that every end-to-end learned optimizer
can be subsumed under one framework: *generate candidate plans with some
exploration strategy, then select with a learned risk model*.  This package
defines that framework (:mod:`repro.core.framework`) along with the common
interfaces every component implements (:mod:`repro.core.interfaces`) and the
method registry that regenerates the paper's Table 1
(:mod:`repro.core.registry`).
"""

from repro.core.interfaces import (
    Backend,
    CardinalityEstimator,
    CostEstimator,
    Decision,
    InjectedCardinalities,
    LatencyPredictor,
    Retrainable,
    ScaledCardinalities,
)
from repro.core.framework import (
    CandidatePlan,
    LearnedOptimizer,
    PlanExplorationStrategy,
    PlannerModel,
    RiskModel,
)
from repro.core.registry import MethodInfo, registry

__all__ = [
    "Backend",
    "CardinalityEstimator",
    "CostEstimator",
    "Decision",
    "InjectedCardinalities",
    "LatencyPredictor",
    "Retrainable",
    "ScaledCardinalities",
    "CandidatePlan",
    "LearnedOptimizer",
    "PlanExplorationStrategy",
    "PlannerModel",
    "RiskModel",
    "MethodInfo",
    "registry",
]
