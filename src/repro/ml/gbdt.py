"""Gradient-boosted regression trees (XGBoost-style, exact greedy splits).

Used for the lightweight query-driven selectivity models of Dutt et al.
[9, 10] and as a general tabular regressor throughout the repo.  Squared
loss, depth-limited trees, shrinkage, at least ``MIN_SAMPLES_LEAF`` rows
on each side of a cut.

A fitted tree is four flat arrays in pre-order -- ``feature`` (``-1`` marks
a leaf), ``threshold``, ``children`` (``[nodes, 2]``; a leaf points at
itself on both sides) and ``value`` -- and an ensemble is the same four
arrays stacked over all its trees plus one root index per tree.  Fitting
stable-sorts every feature once, drops the features no node can cut, hands
the sorted row lists down the tree by stable partition and scores the
valid cuts of all features of a node in one pass;
prediction walks all rows through all trees one level per step.  The
arithmetic, its order and every tie-break are those of the per-node,
per-feature, per-row loops this replaced (kept as
``tests/gbdt_reference.py``; ``tests/test_gbdt_kernel.py`` holds the two to
``==``).  DESIGN.md section 7, "GBDT kernel", has the reasoning.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RegressionTree", "GradientBoostedTrees"]

_MIN_GAIN = 1e-12

#: fewest rows a cut may leave on either side
MIN_SAMPLES_LEAF = 5


def _check_non_negative(**params: int) -> None:
    for name, value in params.items():
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")


def _check_xy(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2:
        raise ValueError("x must be 2-D")
    if y.shape != x.shape[:1]:
        raise ValueError("x/y length mismatch: y must hold one target per row of x")
    if x.shape[0] == 0:
        raise ValueError("cannot fit on empty data")
    return x, y


def _check_rows(x: np.ndarray, n_features: int | None) -> np.ndarray:
    """``x`` as a ``[rows, n_features]`` float matrix (1-D = one row)."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2:
        raise ValueError("x must be 1-D or 2-D")
    if n_features is not None and x.shape[1] != n_features:
        raise ValueError(
            f"x has {x.shape[1]} features, the model was fit on {n_features}"
        )
    return x


def _no_nodes() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """The node arrays (and depth) of no tree at all: the unfitted state."""
    return (
        np.empty(0, dtype=np.intp),
        np.empty(0),
        np.empty((0, 2), dtype=np.intp),
        np.empty(0),
        0,
    )


def _presort(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``x.T`` (contiguous), the features that can ever be cut, and their
    rows in stable value order (``[cuttable features, rows]``).

    A feature whose sorted column has no strictly increasing neighbour pair
    -- one value, or one value and NaNs -- has no valid cut at any node, so
    it is dropped here, once.  ``min < max`` would also drop a column that
    holds NaN and two distinct values; the neighbour test keeps it.
    """
    xt = np.ascontiguousarray(x.T)
    order = np.argsort(xt, axis=1, kind="stable")
    ranked = np.take_along_axis(xt, order, axis=1)
    cuttable = (ranked[:, :-1] < ranked[:, 1:]).any(axis=1)
    return xt, np.flatnonzero(cuttable), order[cuttable]


def _grow(
    xt: np.ndarray,
    y: np.ndarray,
    rows: np.ndarray,
    feats: np.ndarray,
    order: np.ndarray,
    max_depth: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Grow one tree on ``rows`` and return its pre-order node arrays.

    ``xt`` is ``[features, all rows]``, ``y`` is indexed by the same row
    ids, ``rows`` are the tree's row ids ascending, ``feats`` the column
    ids that may be cut and ``order`` is ``[len(feats), len(rows)]``: the
    same row ids in each of those features' stable value order.  Returns
    ``(feature, threshold, children, value, depth)``.
    """
    feature: list[int] = []
    threshold: list[float] = []
    children: list[list[int]] = []
    value: list[float] = []
    reached = 0
    flag = np.zeros(xt.shape[1], dtype=bool)
    cells = xt.ravel()  # cell (f, row) is f * xt.shape[1] + row
    lo = MIN_SAMPLES_LEAF
    # Pre-order with an explicit stack: right is pushed first, so the left
    # subtree is numbered before it.  An entry owns its sorted lists; they
    # are dropped as soon as the node has handed them to its children.
    stack = [(rows, order, feats, 0, -1, 0)]
    while stack:
        rows, order, feats, depth, parent, side = stack.pop()
        node = len(feature)
        if parent >= 0:
            children[parent][side] = node
        y_sub = y[rows]
        feature.append(-1)
        threshold.append(0.0)
        children.append([node, node])
        value.append(float(y_sub.mean()))
        reached = max(reached, depth)
        n = rows.shape[0]
        hi = n - lo
        if depth >= max_depth or hi < lo or feats.size == 0:
            continue
        # Every cut k in [lo, hi] of every live feature in one pass; column
        # i of the slices below is the cut after sorted position lo - 1 + i.
        values = cells[(feats * xt.shape[1])[:, None] + order[:, lo - 1 : hi + 1]]
        valid = values[:, :-1] < values[:, 1:]
        alive = valid.any(axis=1)
        if not alive.any():
            continue
        if not alive.all():
            # No cut here means none below: the rows on either side of a
            # value boundary only get fewer going down.
            feats, order = feats[alive], order[alive]
            values, valid = values[alive], valid[alive]
        total_sum = y_sub.sum()
        total_sq = (y_sub**2).sum()
        base_sse = total_sq - total_sum**2 / n
        y_sorted = y[order]
        # Score the valid cuts only, listed in (feature, cut) row-major
        # order: cut c of feature f ends the left side at sorted position
        # lo - 1 + c, so k = lo + c rows go left.
        f_at, c_at = np.divmod(np.flatnonzero(valid), valid.shape[1])
        k = lo + c_at
        csum = np.cumsum(y_sorted, axis=1)[f_at, k - 1]
        csq = np.cumsum(y_sorted**2, axis=1)[f_at, k - 1]
        left_sse = csq - csum**2 / k
        right_sum = total_sum - csum
        right_sq = total_sq - csq
        right_sse = right_sq - right_sum**2 / (n - k)
        gains = base_sse - left_sse - right_sse
        # The first maximum in row-major order is the first feature's first
        # best cut: the old rule (first maximum per feature, then the first
        # feature with the strictly largest one), which must beat _MIN_GAIN.
        best = int(gains.argmax())
        if not gains[best] > _MIN_GAIN:
            continue
        f, cut = f_at[best], c_at[best]
        thr = float(0.5 * (values[f, cut] + values[f, cut + 1]))
        go_left = xt[feats[f], rows] <= thr
        left_rows, right_rows = rows[go_left], rows[~go_left]
        if left_rows.size == 0 or right_rows.size == 0:
            continue
        feature[node] = int(feats[f])
        threshold[node] = thr
        flag[rows] = go_left
        # Flat compress, not a 2-D boolean index: the same ids, same order.
        to_left, order = flag[order].ravel(), order.ravel()
        right_order = order.compress(~to_left).reshape(feats.size, right_rows.size)
        left_order = order.compress(to_left).reshape(feats.size, left_rows.size)
        stack.append((right_rows, right_order, feats, depth + 1, node, 1))
        stack.append((left_rows, left_order, feats, depth + 1, node, 0))
    return (
        np.array(feature, dtype=np.intp),
        np.array(threshold, dtype=float),
        np.array(children, dtype=np.intp).reshape(-1, 2),
        np.array(value, dtype=float),
        reached,
    )


def _descend(
    x: np.ndarray,
    feature: np.ndarray,
    threshold: np.ndarray,
    children: np.ndarray,
    node: np.ndarray,
    depth: int,
) -> np.ndarray:
    """Walk ``node`` (``[rows]`` or ``[rows, trees]``) down ``depth`` levels.

    A row goes left when ``x <= threshold`` and right otherwise, so NaN goes
    right; a leaf is its own child on both sides and reads a column that
    does not matter.
    """
    cells = x.ravel()
    first = np.arange(x.shape[0]) * x.shape[1]
    if node.ndim == 2:
        first = first[:, None]
    child = children.ravel()
    for _ in range(depth):
        go_right = ~(cells[first + feature[node]] <= threshold[node])
        node = child[2 * node + go_right]
    return node


class RegressionTree:
    """CART regression tree with exact greedy variance-reduction splits.

    After :meth:`fit` the tree is ``feature`` / ``threshold`` / ``children``
    / ``value`` in pre-order (see the module docstring); ``depth_`` is the
    deepest node and ``n_features_`` the width it was fit on.
    """

    def __init__(self, max_depth: int = 4) -> None:
        _check_non_negative(max_depth=max_depth)
        self.max_depth = max_depth
        self.feature, self.threshold, self.children, self.value, self.depth_ = (
            _no_nodes()
        )
        self.n_features_: int | None = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "RegressionTree":
        x, y = _check_xy(x, y)
        xt, feats, order = _presort(x)
        self.feature, self.threshold, self.children, self.value, self.depth_ = _grow(
            xt,
            y,
            np.arange(x.shape[0]),
            feats,
            order,
            self.max_depth,
        )
        self.n_features_ = x.shape[1]
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.n_features_ is None:
            raise ValueError("RegressionTree.predict called before fit")
        x = _check_rows(x, self.n_features_)
        root = np.zeros(x.shape[0], dtype=np.intp)
        leaf = _descend(
            x, self.feature, self.threshold, self.children, root, self.depth_
        )
        return self.value[leaf]


class GradientBoostedTrees:
    """Boosted ensemble of regression trees with squared loss.

    Parameters mirror the usual GBDT knobs; with squared loss each stage fits
    the residuals of the running prediction.  After :meth:`fit` the ensemble
    is one node table -- ``feature_`` / ``threshold_`` / ``children_`` /
    ``value_`` over the nodes of all trees, child ids global -- with
    ``roots_[t]`` the first node of tree ``t``; nothing the size of the
    training set is kept.  Every stage fits all rows, so a fit draws
    nothing: ``seed`` is recorded, not used.
    """

    def __init__(
        self,
        n_estimators: int = 50,
        max_depth: int = 4,
        learning_rate: float = 0.1,
        seed: int = 0,
    ) -> None:
        _check_non_negative(n_estimators=n_estimators, max_depth=max_depth)
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.learning_rate = learning_rate
        self.seed = seed
        self.base_: float = 0.0
        self.n_features_: int | None = None
        self.roots_ = np.empty(0, dtype=np.intp)
        self.feature_, self.threshold_, self.children_, self.value_, self.depth_ = (
            _no_nodes()
        )

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GradientBoostedTrees":
        x, y = _check_xy(x, y)
        self.base_ = float(y.mean())
        n = x.shape[0]
        pred = np.full(n, self.base_)
        # Every stage splits the same matrix, so it is sorted once.
        xt, feats, order = _presort(x)
        all_rows = np.arange(n)
        root = np.zeros(n, dtype=np.intp)
        # Stacked with global child ids; the leading empty block lets zero
        # estimators concatenate like any other count.
        blocks = [_no_nodes()]
        roots = []
        n_nodes = 0
        for _ in range(self.n_estimators):
            residual = y - pred
            feature, threshold, children, value, depth = _grow(
                xt, residual, all_rows, feats, order, self.max_depth
            )
            leaf = _descend(x, feature, threshold, children, root, depth)
            pred += self.learning_rate * value[leaf]
            roots.append(n_nodes)
            blocks.append((feature, threshold, children + n_nodes, value, depth))
            n_nodes += feature.shape[0]
        feature, threshold, children, value, depth = zip(*blocks)
        self.roots_ = np.array(roots, dtype=np.intp)
        self.feature_ = np.concatenate(feature)
        self.threshold_ = np.concatenate(threshold)
        self.children_ = np.concatenate(children)
        self.value_ = np.concatenate(value)
        self.depth_ = max(depth)
        self.n_features_ = x.shape[1]
        return self

    def _stages(self, x: np.ndarray) -> np.ndarray:
        """``[rows, 1 + trees]`` running prediction: ``base_``, then each stage.

        The running total is a ``cumsum`` because that adds strictly left to
        right, as the stage-by-stage loop did; ``sum`` adds pairwise and
        lands on different low bits.
        """
        x = _check_rows(x, self.n_features_)
        node = np.broadcast_to(self.roots_, (x.shape[0], self.roots_.shape[0]))
        leaf = _descend(
            x, self.feature_, self.threshold_, self.children_, node, self.depth_
        )
        steps = np.empty((x.shape[0], self.roots_.shape[0] + 1))
        steps[:, 0] = self.base_
        steps[:, 1:] = self.learning_rate * self.value_[leaf]
        return np.cumsum(steps, axis=1, out=steps)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self._stages(x)[:, -1].copy()

    def staged_predict(self, x: np.ndarray) -> np.ndarray:
        """Predictions after each boosting stage, ``[n_estimators, n]``."""
        return np.ascontiguousarray(self._stages(x)[:, 1:].T)
