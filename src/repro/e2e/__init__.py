"""End-to-end learned query optimizers (paper §2.2).

All eight systems instantiate the unified framework of
:mod:`repro.core.framework` -- ``LearnedOptimizer(exploration, risk_model)``,
a plan exploration strategy plus a learned risk model; each class below is
constructor wiring over that one explore -> select -> learn loop:

=============  ==============================================  =========================
System         Exploration                                     Risk model
=============  ==============================================  =========================
Bao [37]       ``HintSetExploration``: hint-set steering       ``TreeConvLatencyModel`` + Thompson sampling
AutoSteer [1]  ``HintSetExploration`` over discovered arms     ``TreeConvLatencyModel`` + Thompson sampling
Lero [79]      ``CardinalityScalingExploration``               ``PairwisePlanComparator``
HyperQO [72]   ``LeadingTableExploration``: leading hints      ``EnsembleLatencyModel`` + variance filter
Neo [38]       ``ValueSearchExploration``: best-first search   ``PlanValueModel`` (expert-bootstrapped)
Balsa [69]     ``ValueSearchExploration``: beam search         ``PlanValueModel`` (cost-model-bootstrapped)
LOGER [3]      ``ValueSearchExploration``: epsilon-beam        ``PlanValueModel`` (expert-bootstrapped)
LEON [4]       ``TopKDPExploration``: DP keeping top-k/subset  ``PairwisePlanComparator``
=============  ==============================================  =========================

For the search-based systems the two slots share a model: the value
network (comparator) that guides the search is the risk model refit from
feedback, and the search hands it a single candidate.

Exploration strategies live in :mod:`repro.e2e.exploration`, risk models in
:mod:`repro.e2e.risk_models`; the E11 benchmark sweeps their cross product.
:class:`repro.e2e.loop.OptimizationLoop` drives any of them against the
execution simulator with feedback.
"""

from repro.e2e.exploration import (
    CardinalityScalingExploration,
    HintSetExploration,
    LeadingTableExploration,
    TopKDPExploration,
    ValueSearchExploration,
)
from repro.e2e.risk_models import (
    EnsembleLatencyModel,
    PairwisePlanComparator,
    PlanValueModel,
    TreeConvLatencyModel,
)
from repro.e2e.bao import BaoOptimizer
from repro.e2e.lero import LeroOptimizer
from repro.e2e.neo import NeoOptimizer
from repro.e2e.balsa import BalsaOptimizer
from repro.e2e.leon import LeonOptimizer
from repro.e2e.hyperqo import HyperQOOptimizer
from repro.e2e.autosteer import AutoSteerOptimizer
from repro.e2e.loger import LogerOptimizer
from repro.e2e.loop import OptimizationLoop

__all__ = [
    "HintSetExploration",
    "CardinalityScalingExploration",
    "LeadingTableExploration",
    "ValueSearchExploration",
    "TopKDPExploration",
    "TreeConvLatencyModel",
    "PairwisePlanComparator",
    "EnsembleLatencyModel",
    "PlanValueModel",
    "BaoOptimizer",
    "LeroOptimizer",
    "NeoOptimizer",
    "BalsaOptimizer",
    "LeonOptimizer",
    "HyperQOOptimizer",
    "AutoSteerOptimizer",
    "LogerOptimizer",
    "OptimizationLoop",
]
