"""BASE-style calibrated cost model [5].

BASE's observation: the native cost model *ranks* plans well but its cost
units do not correspond to latency ("bridging the gap between cost and
latency"), so instead of learning latency from scratch it learns a
monotone *calibration* from cost to latency using few executed plans.

:class:`CalibratedCostModel` fits an isotonic (pool-adjacent-violators)
regression from estimated plan cost to observed latency.  Because the map
is monotone it preserves the cost model's ranking while fixing its scale
-- which also makes it usable as a risk model that needs far fewer
executions than a from-scratch latency network.
"""

from __future__ import annotations

import numpy as np

from repro.engine.plans import Plan
from repro.optimizer.planner import Optimizer

__all__ = ["isotonic_fit", "CalibratedCostModel"]


def isotonic_fit(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pool-adjacent-violators isotonic regression.

    Returns ``(x_sorted, y_fitted)`` where ``y_fitted`` is non-decreasing;
    predictions interpolate between the fitted points.
    """
    order = np.argsort(x, kind="stable")
    xs = np.asarray(x, dtype=float)[order]
    ys = np.asarray(y, dtype=float)[order]
    n = ys.shape[0]
    # Blocks of (value, weight).
    values = ys.copy()
    weights = np.ones(n)
    # PAVA with an explicit block stack.
    block_value: list[float] = []
    block_weight: list[float] = []
    block_end: list[int] = []
    for i in range(n):
        v, w = float(values[i]), 1.0
        while block_value and block_value[-1] > v:
            pv, pw = block_value.pop(), block_weight.pop()
            block_end.pop()
            v = (v * w + pv * pw) / (w + pw)
            w += pw
        block_value.append(v)
        block_weight.append(w)
        block_end.append(i)
    fitted = np.empty(n)
    start = 0
    for v, end in zip(block_value, block_end):
        fitted[start : end + 1] = v
        start = end + 1
    return xs, fitted


class CalibratedCostModel:
    """Monotone cost -> latency calibration (BASE [5]).

    Parameters
    ----------
    optimizer:
        Supplies the underlying (uncalibrated) cost function.
    """

    name = "calibrated_cost"

    def __init__(self, optimizer: Optimizer) -> None:
        self.optimizer = optimizer
        self._x: np.ndarray | None = None
        self._y: np.ndarray | None = None
        self._observed: list[tuple[float, float]] = []

    def observe(self, plan: Plan, latency_ms: float) -> None:
        """Record one executed plan's (cost, latency) pair."""
        self._observed.append(
            (float(self.optimizer.cost(plan)), float(latency_ms))
        )

    def fit(
        self, plans: list[Plan] | None = None, latencies: np.ndarray | None = None
    ) -> "CalibratedCostModel":
        """Fit the calibration from recorded and/or supplied pairs."""
        pairs = list(self._observed)
        if plans is not None:
            if latencies is None or len(plans) != len(latencies):
                raise ValueError("plans and latencies must align")
            pairs += [
                (float(self.optimizer.cost(p)), float(l))
                for p, l in zip(plans, latencies)
            ]
        if len(pairs) < 2:
            raise ValueError("need at least 2 executed plans to calibrate")
        x = np.array([c for c, _ in pairs])
        y = np.array([l for _, l in pairs])
        self._x, self._y = isotonic_fit(x, y)
        return self

    def predict_latency(self, plan: Plan) -> float:
        if self._x is None or self._y is None:
            raise RuntimeError("predict_latency called before fit")
        cost = float(self.optimizer.cost(plan))
        return float(np.interp(cost, self._x, self._y))
