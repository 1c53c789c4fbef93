"""Learned cardinality estimators -- the methods of the paper's Table 1.

Three families, as the tutorial categorizes them (§2.1.1):

- **query-driven** (:mod:`repro.cardest.querydriven`): supervised models
  mapping featurized queries to cardinalities -- linear [36], GBDT [9, 10],
  QuickSel mixtures [47], MLP [32], MSCN [23], Robust-MSCN [45], LPCE [59];
- **data-driven** (:mod:`repro.cardest.datadriven`): unsupervised models of
  the joint data distribution -- KDE [14, 21], Naru/NeuroCard
  autoregressive [71, 70], Bayesian networks [57, 65], SPN/FSPN [17, 81],
  FactorJoin [64];
- **hybrid** (:mod:`repro.cardest.hybrid`): both -- UAE [63], GLUE [82],
  ALECE [30].

Plus the traditional baselines (:mod:`repro.cardest.traditional`) and the
extension utilities of §2.1.1 (:mod:`repro.cardest.advisor`): the AutoCE
model advisor [74], Flow-Loss-style sample weighting [44] and
ensemble-based prediction intervals [33, 55].

Every estimator implements ``estimate(query) -> float`` and the supervised
ones add ``fit(queries, cards)``; all are interchangeable inside
:class:`repro.optimizer.Optimizer`.
"""

from repro.cardest.base import q_error
from repro.cardest.traditional import HistogramEstimator, SamplingEstimator
from repro.cardest.querydriven import (
    CRNEstimator,
    GLPlusEstimator,
    GBDTQueryEstimator,
    LinearQueryEstimator,
    LPCEEstimator,
    MLPQueryEstimator,
    MSCNEstimator,
    PooledMSCNEstimator,
    QuickSelEstimator,
    RobustMSCNEstimator,
)
from repro.cardest.datadriven import (
    BayesNetEstimator,
    FactorJoinEstimator,
    FSPNEstimator,
    JoinKDEEstimator,
    KDEEstimator,
    NaruEstimator,
    NeuroCardEstimator,
    SPNEstimator,
)
from repro.cardest.hybrid import ALECEEstimator, GLUEEstimator, UAEEstimator
from repro.cardest.advisor import EnsembleEstimator
from repro.cardest.drift import DDUpDetector, Warper

__all__ = [
    "q_error",
    "HistogramEstimator",
    "SamplingEstimator",
    "LinearQueryEstimator",
    "GBDTQueryEstimator",
    "QuickSelEstimator",
    "MLPQueryEstimator",
    "MSCNEstimator",
    "PooledMSCNEstimator",
    "CRNEstimator",
    "GLPlusEstimator",
    "RobustMSCNEstimator",
    "LPCEEstimator",
    "KDEEstimator",
    "JoinKDEEstimator",
    "NaruEstimator",
    "NeuroCardEstimator",
    "BayesNetEstimator",
    "SPNEstimator",
    "FSPNEstimator",
    "FactorJoinEstimator",
    "UAEEstimator",
    "GLUEEstimator",
    "ALECEEstimator",
    "EnsembleEstimator",
    "DDUpDetector",
    "Warper",
]
