"""The object-graph GBDT, kept as the reference.

This is ``repro/ml/gbdt.py`` as it stood before the array kernel: a tree is
a list of ``_Node`` objects built by a recursive ``_build``, every (node,
feature) pair is ``argsort``-ed afresh in ``_best_split``, and ``predict``
walks the nodes row by row in Python.  Only the two class names changed
(``Reference`` prefix), and :func:`reference_node_table` was added to lay a
list of these trees out the way the kernel stores them.  The kernel must
reproduce this file bit for bit -- trees, ``base_``, ``predict`` and
``staged_predict``; ``tests/test_gbdt_kernel.py`` asserts that and
``benchmarks/bench_p6_fastpath.py`` uses it as the interpreted baseline.
Do not optimise this file.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ReferenceRegressionTree",
    "ReferenceGradientBoostedTrees",
    "reference_node_table",
]


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: int = -1
    right: int = -1
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


class ReferenceRegressionTree:
    """CART regression tree with exact greedy variance-reduction splits."""

    def __init__(
        self,
        max_depth: int = 4,
        min_samples_leaf: int = 5,
        min_gain: float = 1e-12,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_gain = min_gain
        self.nodes: list[_Node] = []

    def fit(self, x: np.ndarray, y: np.ndarray) -> "ReferenceRegressionTree":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 2:
            raise ValueError("x must be 2-D")
        if x.shape[0] != y.shape[0]:
            raise ValueError("x/y length mismatch")
        if x.shape[0] == 0:
            raise ValueError("cannot fit a tree on empty data")
        self.nodes = []
        self._build(x, y, np.arange(x.shape[0]), depth=0)
        return self

    def _best_split(
        self, x: np.ndarray, y: np.ndarray, idx: np.ndarray
    ) -> tuple[int, float, float] | None:
        """Return (feature, threshold, gain) or None if no valid split."""
        n = idx.shape[0]
        if n < 2 * self.min_samples_leaf:
            return None
        y_sub = y[idx]
        total_sum = y_sub.sum()
        total_sq = (y_sub**2).sum()
        base_sse = total_sq - total_sum**2 / n
        best: tuple[int, float, float] | None = None
        for f in range(x.shape[1]):
            vals = x[idx, f]
            order = np.argsort(vals, kind="stable")
            v_sorted = vals[order]
            y_sorted = y_sub[order]
            csum = np.cumsum(y_sorted)
            csq = np.cumsum(y_sorted**2)
            # Candidate split positions: between distinct consecutive values,
            # respecting the min-samples-per-leaf constraint.
            k = np.arange(self.min_samples_leaf, n - self.min_samples_leaf + 1)
            if k.size == 0:
                continue
            valid = v_sorted[k - 1] < v_sorted[np.minimum(k, n - 1)]
            k = k[valid[: k.size]]
            if k.size == 0:
                continue
            left_sse = csq[k - 1] - csum[k - 1] ** 2 / k
            right_sum = total_sum - csum[k - 1]
            right_sq = total_sq - csq[k - 1]
            right_sse = right_sq - right_sum**2 / (n - k)
            gains = base_sse - left_sse - right_sse
            j = int(gains.argmax())
            if gains[j] > self.min_gain and (best is None or gains[j] > best[2]):
                thr = 0.5 * (v_sorted[k[j] - 1] + v_sorted[k[j]])
                best = (f, float(thr), float(gains[j]))
        return best

    def _build(self, x: np.ndarray, y: np.ndarray, idx: np.ndarray, depth: int) -> int:
        node_id = len(self.nodes)
        self.nodes.append(_Node(value=float(y[idx].mean())))
        if depth >= self.max_depth:
            return node_id
        split = self._best_split(x, y, idx)
        if split is None:
            return node_id
        feature, threshold, _ = split
        go_left = x[idx, feature] <= threshold
        left_idx, right_idx = idx[go_left], idx[~go_left]
        if left_idx.size == 0 or right_idx.size == 0:
            return node_id
        node = self.nodes[node_id]
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(x, y, left_idx, depth + 1)
        node.right = self._build(x, y, right_idx, depth + 1)
        return node_id

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        out = np.empty(x.shape[0])
        for i in range(x.shape[0]):
            node = self.nodes[0]
            while not node.is_leaf:
                node = self.nodes[node.left if x[i, node.feature] <= node.threshold else node.right]
            out[i] = node.value
        return out


class ReferenceGradientBoostedTrees:
    """Boosted ensemble of :class:`ReferenceRegressionTree` with squared loss.

    Parameters mirror the usual GBDT knobs; with squared loss each stage fits
    the residuals of the running prediction.
    """

    def __init__(
        self,
        n_estimators: int = 50,
        max_depth: int = 4,
        learning_rate: float = 0.1,
        min_samples_leaf: int = 5,
        subsample: float = 1.0,
        seed: int = 0,
    ) -> None:
        if not 0.0 < subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.learning_rate = learning_rate
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.seed = seed
        self.base_: float = 0.0
        self.trees_: list[ReferenceRegressionTree] = []

    def fit(self, x: np.ndarray, y: np.ndarray) -> "ReferenceGradientBoostedTrees":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape[0] == 0:
            raise ValueError("cannot fit on empty data")
        rng = np.random.default_rng(self.seed)
        self.base_ = float(y.mean())
        self.trees_ = []
        pred = np.full(y.shape[0], self.base_)
        n = x.shape[0]
        for _ in range(self.n_estimators):
            residual = y - pred
            if self.subsample < 1.0:
                take = rng.random(n) < self.subsample
                if take.sum() < max(2 * self.min_samples_leaf, 2):
                    take = np.ones(n, dtype=bool)
            else:
                take = np.ones(n, dtype=bool)
            tree = ReferenceRegressionTree(
                max_depth=self.max_depth, min_samples_leaf=self.min_samples_leaf
            )
            tree.fit(x[take], residual[take])
            update = tree.predict(x)
            pred += self.learning_rate * update
            self.trees_.append(tree)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        out = np.full(x.shape[0], self.base_)
        for tree in self.trees_:
            out += self.learning_rate * tree.predict(x)
        return out

    def staged_predict(self, x: np.ndarray) -> np.ndarray:
        """Predictions after each boosting stage, ``[n_estimators, n]``."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        out = np.full(x.shape[0], self.base_)
        stages = np.empty((len(self.trees_), x.shape[0]))
        for i, tree in enumerate(self.trees_):
            out = out + self.learning_rate * tree.predict(x)
            stages[i] = out
        return stages


def reference_node_table(trees: list[ReferenceRegressionTree]) -> dict[str, np.ndarray]:
    """``trees`` in the kernel's layout, for ``==`` against a fitted model.

    One row per node, trees back to back in the pre-order ``_build``
    numbered them: ``roots`` (first node of each tree), ``feature``
    (``-1`` = leaf), ``threshold``, ``children`` (``[nodes, 2]``, ids
    counted over the whole table, a leaf naming itself twice) and
    ``value``.
    """
    roots, feature, threshold, children, value = [], [], [], [], []
    for tree in trees:
        root = len(feature)
        roots.append(root)
        for i, node in enumerate(tree.nodes):
            feature.append(node.feature)
            threshold.append(node.threshold)
            value.append(node.value)
            if node.is_leaf:
                children.append([root + i, root + i])
            else:
                children.append([root + node.left, root + node.right])
    return {
        "roots": np.array(roots, dtype=np.intp),
        "feature": np.array(feature, dtype=np.intp),
        "threshold": np.array(threshold, dtype=float),
        "children": np.array(children, dtype=np.intp).reshape(-1, 2),
        "value": np.array(value, dtype=float),
    }
