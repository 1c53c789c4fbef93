"""Tree-structured recurrent cost model (Sun & Li [51]).

A Tree-LSTM in spirit, implemented as a tree-GRU-style recursive unit:
each node's hidden state combines its feature vector with its children's
states (``h = tanh(W x + U_l h_l + U_r h_r + b)``); the root state feeds a
linear head predicting log latency.  Gradients are backpropagated through
the recursion per plan (plans are small trees, so per-plan processing is
cheap and keeps the implementation transparent).
"""

from __future__ import annotations

import math

import numpy as np

from repro.costmodel.features import PlanFeaturizer, plan_to_tree_arrays
from repro.engine.plans import Plan
from repro.ml.nn import Adam

__all__ = ["TreeRecurrentCostModel"]


class TreeRecurrentCostModel:
    """Recursive bottom-up plan encoder + linear latency head."""

    name = "tree_recurrent_cost"

    def __init__(self, featurizer: PlanFeaturizer) -> None:
        self.featurizer = featurizer
        self.hidden = hidden = 48
        rng = np.random.default_rng(0)
        d = featurizer.node_dim
        s = lambda n: math.sqrt(1.0 / n)  # noqa: E731
        self.wx = rng.normal(0, s(d), (d, hidden))
        self.ul = rng.normal(0, s(hidden), (hidden, hidden))
        self.ur = rng.normal(0, s(hidden), (hidden, hidden))
        self.b = np.zeros(hidden)
        self.wo = rng.normal(0, s(hidden), (hidden, 1))
        self.bo = np.zeros(1)
        self._params = [self.wx, self.ul, self.ur, self.b, self.wo, self.bo]
        self._fitted = False

    # -- recursion ------------------------------------------------------------------

    def _forward_tree(self, feats, left, right):
        """Bottom-up states; returns (states, order) with children-first order."""
        n = feats.shape[0]
        states = np.zeros((n, self.hidden))
        order: list[int] = []

        def visit(i: int) -> None:
            hl = np.zeros(self.hidden)
            hr = np.zeros(self.hidden)
            if left[i] >= 0:
                visit(left[i])
                hl = states[left[i]]
            if right[i] >= 0:
                visit(right[i])
                hr = states[right[i]]
            pre = feats[i] @ self.wx + hl @ self.ul + hr @ self.ur + self.b
            states[i] = np.tanh(pre)
            order.append(i)

        visit(0)
        return states, order

    def _grads_tree(self, feats, left, right, states, d_root):
        """Backprop through the recursion; root is node 0."""
        n = feats.shape[0]
        d_state = np.zeros((n, self.hidden))
        d_state[0] = d_root
        g_wx = np.zeros_like(self.wx)
        g_ul = np.zeros_like(self.ul)
        g_ur = np.zeros_like(self.ur)
        g_b = np.zeros_like(self.b)

        def visit(i: int) -> None:
            d_pre = d_state[i] * (1.0 - states[i] ** 2)
            g_wx[...] += np.outer(feats[i], d_pre)
            g_b[...] += d_pre
            if left[i] >= 0:
                g_ul[...] += np.outer(states[left[i]], d_pre)
                d_state[left[i]] += d_pre @ self.ul.T
                visit(left[i])
            if right[i] >= 0:
                g_ur[...] += np.outer(states[right[i]], d_pre)
                d_state[right[i]] += d_pre @ self.ur.T
                visit(right[i])

        visit(0)
        return g_wx, g_ul, g_ur, g_b

    # -- training ---------------------------------------------------------------------

    def fit(
        self, plans: list[Plan], latencies_ms: np.ndarray
    ) -> "TreeRecurrentCostModel":
        if not plans:
            raise ValueError("empty training corpus")
        trees = [plan_to_tree_arrays(p, self.featurizer) for p in plans]
        y = np.log1p(np.maximum(np.asarray(latencies_ms, dtype=float), 0.0))
        opt = Adam(lr=2e-3)
        rng = np.random.default_rng(1)
        n = len(trees)
        for _ in range(30):
            order = rng.permutation(n)
            for i in order:
                feats, left, right = trees[i]
                states, _ = self._forward_tree(feats, left, right)
                pred = states[0] @ self.wo + self.bo
                err = pred - y[i]
                g_wo = np.outer(states[0], 2.0 * err)
                g_bo = 2.0 * err
                d_root = (2.0 * err) @ self.wo.T
                g_wx, g_ul, g_ur, g_b = self._grads_tree(
                    feats, left, right, states, d_root
                )
                opt.step(self._params, [g_wx, g_ul, g_ur, g_b, g_wo, g_bo])
        self._fitted = True
        return self

    def predict_latency(self, plan: Plan) -> float:
        if not self._fitted:
            raise RuntimeError("predict_latency called before fit")
        feats, left, right = plan_to_tree_arrays(plan, self.featurizer)
        states, _ = self._forward_tree(feats, left, right)
        pred = float((states[0] @ self.wo + self.bo)[0])
        return float(max(np.expm1(pred), 0.0))
