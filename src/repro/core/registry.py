"""The method table: the paper's Table 1 (and beyond), with how to build it.

Table 1 of the tutorial lists the learned cardinality estimators by
category, method name and applied ML technique.  This registry holds those
rows *plus* the cost-model / join-order / end-to-end methods of §2.1.2-2.2,
each mapped to its implementation in this repository.

For cardinality estimators it is also the one name -> constructor table: a
row's ``key`` is the name :func:`repro.bench.build_estimator` accepts and
``args`` are the constructor's keyword arguments per budget.  A row with
an empty key has no constructor from ``(db, budget, seed)`` yet (it needs
member models, a string column, ...); the T1 benchmark builds, fits and
scores every keyed row and prints the others as the backlog.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field

__all__ = ["MethodInfo", "SEED", "Keyed", "registry", "cardinality_estimator_rows"]

#: constructor-argument value standing for the caller's ``seed``
SEED = object()


@dataclass(frozen=True)
class Keyed:
    """A constructor argument that is itself a keyed estimator, built at
    the same budget and seed (GLUE's single-table model)."""

    key: str


@dataclass(frozen=True)
class MethodInfo:
    """One surveyed method and where this repo implements it."""

    component: str  # cardinality | cost_model | join_order | end_to_end | regression
    category: str  # taxonomy row group, e.g. "Query-Driven (DNN-Based Model)"
    method: str  # method name as the paper lists it
    technique: str  # "Applied ML Techniques" column
    paper_ref: str  # citation key in the tutorial, e.g. "[23]"
    impl: str  # "module:ClassName" inside this repo
    key: str = ""  # build_estimator name; rows sharing an implementation share it
    #: constructor keyword arguments after ``db``: a value, :data:`SEED`, a
    #: :class:`Keyed` or a ``{"fast": ..., "full": ...}`` per-budget pair
    args: dict = field(default_factory=dict)

    def resolve(self) -> type:
        """Import and return the implementing class."""
        module_name, _, attr = self.impl.partition(":")
        module = importlib.import_module(module_name)
        try:
            return getattr(module, attr)
        except AttributeError as exc:
            raise ImportError(
                f"{self.impl!r} registered for {self.method} does not exist"
            ) from exc


_CARD = "repro.cardest"
_COST = "repro.costmodel"
_JOIN = "repro.joinorder"
_E2E = "repro.e2e"
_REG = "repro.regression"

#: per-budget training epochs: the query-driven networks, the autoregressive models
_EPOCHS_NN = {"fast": 30, "full": 80}
_EPOCHS_AR = {"fast": 5, "full": 12}
_SEEDED = {"seed": SEED}

_REGISTRY: list[MethodInfo] = [
    # ---- Table 1: learned cardinality estimators --------------------------------
    MethodInfo("cardinality", "Query-Driven (Statistical Model)", "Malik et al.",
               "Linear Model", "[36]", f"{_CARD}.querydriven:LinearQueryEstimator", "linear"),
    MethodInfo("cardinality", "Query-Driven (Statistical Model)", "Dutt et al.",
               "Tree-based Ensembles", "[10]", f"{_CARD}.querydriven:GBDTQueryEstimator",
               "gbdt", _SEEDED),
    MethodInfo("cardinality", "Query-Driven (Statistical Model)", "Dutt et al.",
               "XGBoost", "[9]", f"{_CARD}.querydriven:GBDTQueryEstimator",
               "gbdt", _SEEDED),
    MethodInfo("cardinality", "Query-Driven (Statistical Model)", "QuickSel",
               "Mixture Model", "[47]", f"{_CARD}.querydriven:QuickSelEstimator", "quicksel"),
    MethodInfo("cardinality", "Query-Driven (DNN-Based Model)", "Liu et al.",
               "Fully Connected Neural Network", "[32]", f"{_CARD}.querydriven:MLPQueryEstimator",
               "mlp", {"epochs": _EPOCHS_NN, "seed": SEED}),
    MethodInfo("cardinality", "Query-Driven (DNN-Based Model)", "MSCN",
               "Multi-Set Convolutional Network", "[23]", f"{_CARD}.querydriven:MSCNEstimator",
               "mscn", {"epochs": _EPOCHS_NN, "seed": SEED}),
    MethodInfo("cardinality", "Query-Driven (DNN-Based Model)", "Kim et al.",
               "Adding Pooling Layers", "[22]", f"{_CARD}.querydriven:PooledMSCNEstimator",
               "pooled_mscn", {"epochs": _EPOCHS_NN, "seed": SEED}),
    MethodInfo("cardinality", "Query-Driven (DNN-Based Model)", "CRN",
               "Learning Containment Rate", "[13]", f"{_CARD}.querydriven:CRNEstimator",
               "crn", {"epochs": _EPOCHS_NN, "seed": SEED}),
    MethodInfo("cardinality", "Query-Driven (DNN-Based Model)", "Robust-MSCN",
               "Query Masking", "[45]", f"{_CARD}.querydriven:RobustMSCNEstimator",
               "robust_mscn", {"epochs": _EPOCHS_NN, "seed": SEED}),
    MethodInfo("cardinality", "Query-Driven (DNN-Based Model)", "GL+",
               "Segmentation Technique", "[52]", f"{_CARD}.querydriven:GLPlusEstimator",
               "gl_plus", {"epochs": _EPOCHS_NN, "seed": SEED}),
    # Unkeyed: an ensemble is built from already-fitted member models.
    MethodInfo("cardinality", "Query-Driven (DNN-Based Model)", "Fauce",
               "Ensemble of Deep Models", "[33]", f"{_CARD}.advisor:EnsembleEstimator"),
    MethodInfo("cardinality", "Query-Driven (DNN-Based Model)", "NNGP",
               "Bayesian Deep Learning (ensemble posterior)", "[75]", f"{_CARD}.advisor:EnsembleEstimator"),
    MethodInfo("cardinality", "Query-Driven (DNN-Based Model)", "LPCE",
               "Query Re-Optimization", "[59]", f"{_CARD}.querydriven:LPCEEstimator",
               "lpce", _SEEDED),
    MethodInfo("cardinality", "Data-Driven (Kernel-Based)", "Heimel et al.",
               "Kernel Density Function", "[14]", f"{_CARD}.datadriven:KDEEstimator",
               "kde", _SEEDED),
    MethodInfo("cardinality", "Data-Driven (Kernel-Based)", "Kiefer et al.",
               "Kernel Density Function", "[21]", f"{_CARD}.datadriven:JoinKDEEstimator",
               "join_kde", _SEEDED),
    MethodInfo("cardinality", "Data-Driven (Auto-Regression Model)", "Naru",
               "Single Table", "[71]", f"{_CARD}.datadriven:NaruEstimator",
               "naru", {"epochs": _EPOCHS_AR, "seed": SEED}),
    MethodInfo("cardinality", "Data-Driven (Auto-Regression Model)", "NeuroCard",
               "Multi-Tables", "[70]", f"{_CARD}.datadriven:NeuroCardEstimator",
               "neurocard", {"epochs": _EPOCHS_AR, "n_samples": {"fast": 700, "full": 1500},
                             "seed": SEED}),
    MethodInfo("cardinality", "Data-Driven (Probabilistic Graphical Model)", "BayesNet",
               "Bayesian Networks", "[57]", f"{_CARD}.datadriven:BayesNetEstimator", "bayesnet"),
    MethodInfo("cardinality", "Data-Driven (Probabilistic Graphical Model)", "BayesCard",
               "Revitalized Bayesian networks", "[65]", f"{_CARD}.datadriven:BayesNetEstimator", "bayesnet"),
    MethodInfo("cardinality", "Data-Driven (Probabilistic Graphical Model)", "DeepDB",
               "Sum-Product Network", "[17]", f"{_CARD}.datadriven:SPNEstimator",
               "spn", _SEEDED),
    MethodInfo("cardinality", "Data-Driven (Probabilistic Graphical Model)", "FLAT",
               "FSPN", "[81]", f"{_CARD}.datadriven:FSPNEstimator",
               "fspn", _SEEDED),
    MethodInfo("cardinality", "Data-Driven (Probabilistic Graphical Model)", "FactorJoin",
               "Factor Graph and Join Histogram", "[64]", f"{_CARD}.datadriven:FactorJoinEstimator",
               "factorjoin", _SEEDED),
    # Absolute per-table sample sizes (100 rows fast / 150 full), NOT a
    # sampling rate: large enough to be a serious baseline, small enough
    # that its selective-predicate tail blow-ups (the behaviour the
    # benchmark papers report) are visible at this scale.
    MethodInfo("cardinality", "Data-Driven", "Sampling",
               "Uniform Row Sampling (baseline)", "-", f"{_CARD}.traditional:SamplingEstimator",
               "sampling", {"sample_rows": {"fast": 100, "full": 150}, "seed": SEED}),
    MethodInfo("cardinality", "Data-Driven", "Histogram",
               "Histograms + MCVs (baseline)", "-", f"{_CARD}.traditional:HistogramEstimator", "histogram"),
    MethodInfo("cardinality", "Hybrid", "UAE",
               "Deep Auto-Regression Model", "[63]", f"{_CARD}.hybrid:UAEEstimator",
               "uae", {"epochs": _EPOCHS_AR, "seed": SEED}),
    MethodInfo("cardinality", "Hybrid", "GLUE",
               "Merging Single Table Results", "[82]", f"{_CARD}.hybrid:GLUEEstimator",
               "glue", {"single_table_estimator": Keyed("fspn")}),
    MethodInfo("cardinality", "Hybrid", "ALECE",
               "Attention on Transformer Model", "[30]", f"{_CARD}.hybrid:ALECEEstimator",
               "alece", {"epochs": {"fast": 60, "full": 160}, "seed": SEED}),
    # Unkeyed: Astrid estimates over a string column, not a Query; the
    # mixed-predicate row is a featurization, not an estimator class.
    MethodInfo("cardinality", "Extensions (String Predicates)", "Astrid",
               "NLP n-gram features + deep model", "[48]", f"{_CARD}.strings:AstridEstimator"),
    MethodInfo("cardinality", "Extensions (Mixed Predicates)", "Mueller et al.",
               "Conjunctive/disjunctive featurization", "[42]", "repro.sql.query:OrPredicate"),
    # ---- Learned cost models (§2.1.2) ---------------------------------------------
    MethodInfo("cost_model", "Single Query", "Marcus & Papaemmanouil",
               "Tree Convolutional Network", "[39]", f"{_COST}.treeconv_cost:TreeConvCostModel"),
    MethodInfo("cost_model", "Single Query", "Sun & Li",
               "Tree-structured recurrent model", "[51]", f"{_COST}.recurrent_cost:TreeRecurrentCostModel"),
    MethodInfo("cost_model", "Single Query", "Zero-shot",
               "Transferable cost features", "[16]", f"{_COST}.zeroshot:ZeroShotCostModel"),
    MethodInfo("cost_model", "Concurrent Queries", "GPredictor",
               "Graph interference features", "[78]", f"{_COST}.concurrent:ConcurrentCostModel"),
    # ---- Learned join order search (§2.1.3) ------------------------------------------
    MethodInfo("join_order", "Offline Learning", "DQ / ReJoin",
               "Q-learning over join states", "[15, 24]", f"{_JOIN}.dq:DQJoinOrderSearch"),
    MethodInfo("join_order", "Offline Learning", "RTOS",
               "Tree-structured state representation", "[73]", f"{_JOIN}.rtos:RTOSJoinOrderSearch"),
    MethodInfo("join_order", "Online Learning", "SkinnerDB",
               "Monte-Carlo tree search (UCT)", "[56]", f"{_JOIN}.mcts:MCTSJoinOrderSearch"),
    MethodInfo("join_order", "Online Learning", "Eddy-RL",
               "Q-learning during execution", "[58]", f"{_JOIN}.eddy:EddyJoinOrderSearch"),
    # ---- End-to-end learned optimizers (§2.2) ---------------------------------------
    MethodInfo("end_to_end", "Steering", "Bao",
               "Hint sets + tree convolution + Thompson sampling", "[37]", f"{_E2E}.bao:BaoOptimizer"),
    MethodInfo("end_to_end", "Steering", "Lero",
               "Cardinality scaling + pairwise ranking", "[79]", f"{_E2E}.lero:LeroOptimizer"),
    MethodInfo("end_to_end", "From Scratch", "Neo",
               "Best-first plan search + tree convolution value net", "[38]", f"{_E2E}.neo:NeoOptimizer"),
    MethodInfo("end_to_end", "From Scratch", "Balsa",
               "Beam search + sim-to-real bootstrapping", "[69]", f"{_E2E}.balsa:BalsaOptimizer"),
    MethodInfo("end_to_end", "Aided", "LEON",
               "DP enumeration + pairwise comparison model", "[4]", f"{_E2E}.leon:LeonOptimizer"),
    MethodInfo("end_to_end", "Aided", "HyperQO",
               "Leading hints + ensemble variance filtering", "[72]", f"{_E2E}.hyperqo:HyperQOOptimizer"),
    MethodInfo("cost_model", "Single Query", "BASE",
               "Monotone cost-to-latency calibration", "[5]", f"{_COST}.calibrated:CalibratedCostModel"),
    MethodInfo("cost_model", "Single Query", "Saturn",
               "Plan auto-encoder embeddings", "[34]", f"{_COST}.embeddings:PlanAutoencoder"),
    MethodInfo("cost_model", "Multi-Task", "MLMTF",
               "Pre-trained multi-task plan model", "[66]", f"{_COST}.multitask:UnifiedTransferableModel"),
    MethodInfo("end_to_end", "From Scratch", "LOGER",
               "Epsilon-beam search + learned plan values", "[3]", f"{_E2E}.loger:LogerOptimizer"),
    # ---- Regression elimination (§2.2.2) ----------------------------------------------
    MethodInfo("regression", "Plugin", "Eraser",
               "Coarse filter + plan clustering", "[62]", f"{_REG}.eraser:Eraser"),
    MethodInfo("regression", "Plugin", "PerfGuard",
               "Pairwise regression guard", "[18]", f"{_REG}.perfguard:PerfGuard"),
    MethodInfo("regression", "Model Updating", "Warper",
               "Drift-targeted query generation + refit", "[29]", f"{_CARD}.drift:Warper"),
    MethodInfo("regression", "Model Updating", "DDUp",
               "Two-stage out-of-distribution detection", "[25]", f"{_CARD}.drift:DDUpDetector"),
]


def registry(component: str | None = None) -> list[MethodInfo]:
    """All registered methods, optionally filtered by component."""
    if component is None:
        return list(_REGISTRY)
    rows = [m for m in _REGISTRY if m.component == component]
    if not rows:
        valid = sorted({m.component for m in _REGISTRY})
        raise ValueError(f"unknown component {component!r}; valid: {valid}")
    return rows


def cardinality_estimator_rows() -> list[tuple[str, str, str]]:
    """The (category, method, technique) rows of the paper's Table 1."""
    return [
        (m.category, m.method, m.technique) for m in registry("cardinality")
    ]
