"""Tree-convolution cost model (Marcus & Papaemmanouil [39]).

The plan-structured deep model: tree convolution over per-node features,
dynamic pooling, MLP head regressing log latency.  The same architecture
(with different heads) powers the risk models of Neo and Bao.
"""

from __future__ import annotations

import numpy as np

from repro.costmodel.features import PlanFeaturizer, plan_to_tree_arrays
from repro.engine.plans import Plan
from repro.ml.treeconv import TreeConvNet

__all__ = ["TreeConvCostModel"]


class TreeConvCostModel:
    """Tree-convolution network regressing ``log(1 + latency_ms)``."""

    name = "treeconv_cost"

    def __init__(self, featurizer: PlanFeaturizer) -> None:
        self.featurizer = featurizer
        self.net = TreeConvNet(
            featurizer.node_dim, conv_channels=(64, 64), head_hidden=(32,), seed=0
        )
        self._fitted = False

    def _trees(self, plans: list[Plan]):
        return [plan_to_tree_arrays(p, self.featurizer) for p in plans]

    def fit(self, plans: list[Plan], latencies_ms: np.ndarray) -> "TreeConvCostModel":
        if not plans:
            raise ValueError("empty training corpus")
        y = np.log1p(np.maximum(np.asarray(latencies_ms, dtype=float), 0.0))
        self.net.fit(
            self._trees(plans), y, epochs=50, lr=1e-3, seed=0
        )
        self._fitted = True
        return self

    def predict_latency(self, plan: Plan) -> float:
        if not self._fitted:
            raise RuntimeError("predict_latency called before fit")
        pred = self.net.predict(self._trees([plan]))[0]
        return float(max(np.expm1(pred), 0.0))
