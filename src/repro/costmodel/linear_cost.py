"""Linear cost model over flat plan features (the classic baseline)."""

from __future__ import annotations

import numpy as np

from repro.costmodel.features import PlanFeaturizer
from repro.engine.plans import Plan

__all__ = ["LinearPlanCostModel"]


class LinearPlanCostModel:
    """Ridge regression from flat plan features to log latency."""

    name = "linear_cost"
    l2 = 1.0  # ridge strength

    def __init__(self, featurizer: PlanFeaturizer) -> None:
        self.featurizer = featurizer
        self._w: np.ndarray | None = None

    def fit(self, plans: list[Plan], latencies_ms: np.ndarray) -> "LinearPlanCostModel":
        if not plans:
            raise ValueError("empty training corpus")
        x = self.featurizer.flat_batch(plans)
        y = np.log1p(np.maximum(np.asarray(latencies_ms, dtype=float), 0.0))
        xb = np.column_stack([x, np.ones(x.shape[0])])
        gram = xb.T @ xb + self.l2 * np.eye(xb.shape[1])
        self._w = np.linalg.solve(gram, xb.T @ y)
        return self

    def predict_latency(self, plan: Plan) -> float:
        if self._w is None:
            raise RuntimeError("predict_latency called before fit")
        x = self.featurizer.flat(plan)
        xb = np.append(x, 1.0)
        return float(np.expm1(xb @ self._w))
