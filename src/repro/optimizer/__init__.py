"""The traditional Volcano-style query optimizer (the "native" optimizer).

Mirrors PostgreSQL's structure, which the tutorial takes as the seminal
architecture (§2): statistics (equi-depth histograms + most-common values),
an independence-assumption selectivity model, PG-style operator costing over
the shared cost formulas, and plan enumeration by dynamic programming over
connected subsets (with greedy and left-deep variants).

The planner accepts two steering surfaces used by every learned method:

- a pluggable :class:`repro.core.CardinalityEstimator` (cardinality
  injection / learned estimators / Lero's scaling knob);
- a :class:`repro.optimizer.hints.HintSet` enabling/disabling operators
  (Bao's steering knob).
"""

from repro.optimizer.statistics import DatabaseStats
from repro.optimizer.traditional import TraditionalCardinalityEstimator
from repro.optimizer.cardcache import CardinalityCache
from repro.optimizer.hints import HintSet
from repro.optimizer.plancache import PlanCache, rebind_plan
from repro.optimizer.planner import Optimizer
from repro.optimizer.risk import RiskLambdaTuner

__all__ = [
    "RiskLambdaTuner",
    "DatabaseStats",
    "TraditionalCardinalityEstimator",
    "CardinalityCache",
    "PlanCache",
    "rebind_plan",
    "HintSet",
    "Optimizer",
]
