"""Gradient-boosted regression trees (XGBoost-style, exact greedy splits).

Used for the lightweight query-driven selectivity models of Dutt et al.
[9, 10] and as a general tabular regressor throughout the repo.  Squared
loss, depth-limited trees, shrinkage, at least ``MIN_SAMPLES_LEAF`` rows
on each side of a cut.

A fitted tree is four flat arrays in pre-order -- ``feature`` (``-1`` marks
a leaf), ``threshold``, ``children`` (``[nodes, 2]``; a leaf points at
itself on both sides) and ``value`` -- and an ensemble is the same four
arrays stacked over all its trees plus one root index per tree.  Fitting
bins every feature once (its sorted distinct values, one int code per row,
each feature's bins after the previous feature's) and drops the features
no node can cut.  A node finds its valid cuts from per-bin row counts,
screens them all from one ``bincount`` of the target, and verifies only
the cuts within a derived rounding bound of its best, with the exact
prefix sums the reference takes -- none at all when it keeps one cut whose
gain the bound already puts above the least a split must beat.  The
threshold comes from the bin values around the cut; children get their
rows by the threshold and their counts by one ``bincount`` of the smaller
child.  Prediction walks all rows through all trees one level per step.
Every tree, threshold and leaf value is that of the per-node, per-feature,
per-row loops this replaced (kept as
``tests/gbdt_reference.py``; ``tests/test_gbdt_kernel.py`` holds the two to
``==``).  DESIGN.md section 7, "GBDT kernel", has the reasoning and the
bound.
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


def _bin(
    x: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """What every tree of a fit shares: ``x.T`` (contiguous), the features
    the root can cut, their bin codes (``[rows, features]``), each bin's
    feature, each feature's first bin and number of bins, each bin's
    value, the all-rows count histogram and the root's valid cuts.

    Feature ``i`` of the cuttable list has its sorted distinct non-NaN
    values as bins ``0, 1, ...`` and NaN as its last bin; its bins are
    numbered after those of the features before it, so a row's codes are
    distinct cells of one histogram of every feature.  Equal values share
    a bin (``-0.0`` and ``0.0`` too), so a stable sort of a node's codes is
    the stable sort of its values.  A feature with no valid cut at the
    root (see :func:`_valid_cuts`) has none at any node and is dropped
    here, once.
    """
    xt = np.ascontiguousarray(x.T)
    n, lo = x.shape[0], MIN_SAMPLES_LEAF
    order = np.argsort(xt, axis=1, kind="stable")
    ranked = np.take_along_axis(xt, order, axis=1)
    # NaN sorts last and fails every comparison, so it never opens a bin.
    step = ranked[:, :-1] < ranked[:, 1:]
    cuttable = np.flatnonzero(step[:, lo - 1 : n - lo].any(axis=1))
    order, ranked, step = order[cuttable], ranked[cuttable], step[cuttable]
    n_bins = step.sum(axis=1) + 2
    first = n_bins.cumsum() - n_bins
    ranked_codes = np.zeros(order.shape, dtype=np.intp)
    np.cumsum(step, axis=1, out=ranked_codes[:, 1:])
    nan = np.isnan(ranked)
    ranked_codes[nan] = np.broadcast_to(n_bins[:, None] - 1, nan.shape)[nan]
    ranked_codes += first[:, None]
    value = np.full(n_bins.sum(), np.nan)
    value[ranked_codes] = ranked
    codes = np.empty_like(ranked_codes)
    np.put_along_axis(codes, order, ranked_codes, axis=1)
    codes = np.ascontiguousarray(codes.T)
    counts = _histogram(codes, np.arange(n), value.size)
    bin_feature = np.repeat(np.arange(cuttable.size), n_bins)
    cuts = _valid_cuts(counts, n, bin_feature, first + n_bins - 1)
    return xt, cuttable, codes, bin_feature, first, n_bins, value, counts, cuts


def _histogram(
    codes: np.ndarray, rows: np.ndarray, n_bins: int, weights: np.ndarray | None = None
) -> np.ndarray:
    """Per-bin row count (or sum of ``weights``, one per row) of every
    feature over ``rows``.

    One row gather and one ``bincount``: a bin adds its rows' weights one
    at a time, in ``rows`` order.
    """
    if weights is not None:
        weights = np.repeat(weights, codes.shape[1])
    return np.bincount(codes.take(rows, axis=0).ravel(), weights, n_bins)


def _valid_cuts(
    counts: np.ndarray, n: int, bin_feature: np.ndarray, nan_bin: np.ndarray
) -> tuple[np.ndarray, ...] | None:
    """The valid cuts of a node of ``n`` rows whose per-bin row counts are
    ``counts``, in (feature, bin) order: each one's bin, the next non-empty
    bin of its feature, its feature and ``k``, the rows at or below its
    bin; ``None`` when there are none.

    A cut follows a non-empty bin with a later non-empty real bin and
    leaves ``MIN_SAMPLES_LEAF .. n - MIN_SAMPLES_LEAF`` rows on the left.
    ``nonzero`` lists the non-empty bins in order; every feature's bins
    hold all ``n`` rows, so the running count over them less ``n`` per
    earlier feature is the count at or below each bin.
    """
    lo = MIN_SAMPLES_LEAF
    cell = counts.nonzero()[0]
    f_at = bin_feature[cell]
    k = counts[cell].cumsum() - f_at * n
    last = np.minimum(n - 1 - counts[nan_bin], n - lo)
    ok = ((k >= lo) & (k <= last[f_at])).nonzero()[0]
    if ok.size == 0:
        return None
    return cell[ok], cell[ok + 1], f_at[ok], k[ok]


def _exact_gains(
    codes: np.ndarray,
    rows: np.ndarray,
    y: np.ndarray,
    k: np.ndarray,
    total_sum: float,
    total_sq: float,
    base_sse: float,
) -> np.ndarray:
    """The gains of the cuts ``k`` of one feature as the reference scores
    them.

    ``codes`` is the feature's code per row id.  The prefix sums are the
    sequential ``cumsum`` of ``y`` and ``y**2`` in (value, row id) order and
    the gain is the reference's expression, operation for operation -- its
    operands in its order -- so the gains are its gains to the bit.
    """
    y_sorted = y[rows[np.argsort(codes[rows], kind="stable")]]
    at = k - 1
    csum = y_sorted.cumsum()[at]
    csq = (y_sorted**2).cumsum()[at]
    left_sse = csq - csum**2 / k
    right_sum = total_sum - csum
    right_sq = total_sq - csq
    right_sse = right_sq - right_sum**2 / (rows.shape[0] - k)
    return base_sse - left_sse - right_sse


#: unit roundoff of float64
_U = np.finfo(float).eps / 2

#: the screen's error bound in units of ``gamma_m * (sum y**2 + sum |y| * max |y|)``
#: (DESIGN.md section 7 derives under 50; the rest is margin)
_SCREEN_SLACK = 128.0


def _grow(
    xt: np.ndarray,
    cuttable: np.ndarray,
    codes: np.ndarray,
    bin_feature: np.ndarray,
    first_bin: np.ndarray,
    n_bins: np.ndarray,
    bin_value: np.ndarray,
    counts: np.ndarray,
    cuts: tuple[np.ndarray, ...] | None,
    y: np.ndarray,
    max_depth: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int, np.ndarray]:
    """Grow one tree on all rows and return its pre-order node arrays.

    ``xt`` is ``[features, rows]``, ``y`` is indexed by the same row ids
    and the rest is :func:`_bin`'s.  Returns ``(feature, threshold,
    children, value, depth)`` and the node each row ends in.
    """
    feature: list[int] = []
    threshold: list[float] = []
    children: list[list[int]] = []
    value: list[float] = []
    reached = 0
    lo = MIN_SAMPLES_LEAF
    n_cells = bin_value.size
    nan_bin = first_bin + n_bins - 1
    width = int(n_bins.max(initial=0))  # the most bins a left sum adds
    abs_y = np.abs(y)
    leaf = np.empty(y.size, dtype=np.intp)
    # Pre-order with an explicit stack: right is pushed first, so the left
    # subtree is numbered before it.  An entry holds its rows ascending and
    # their count histogram; the root's valid cuts come from _bin.
    stack = [(np.arange(y.size), counts, cuts, 0, -1, 0)]
    while stack:
        rows, counts, cuts, depth, parent, side = stack.pop()
        node = len(feature)
        if parent >= 0:
            children[parent][side] = node
        n = rows.shape[0]
        y_sub = y[rows]
        total_sum = y_sub.sum()
        feature.append(-1)
        threshold.append(0.0)
        children.append([node, node])
        value.append(float(total_sum / n))  # what y_sub.mean() computes
        leaf[rows] = node
        reached = max(reached, depth)
        if depth >= max_depth or n < 2 * lo:
            continue
        if depth:
            cuts = _valid_cuts(counts, n, bin_feature, nan_bin)
        if cuts is None:
            continue
        cell, upper, f_at, k = cuts
        # Screen: every valid cut scored from per-bin sums of y.  In exact
        # arithmetic a gain is c1**2 / k + (T - c1)**2 / (n - k) plus a
        # constant of the node (the sums of squares cancel), so each
        # screened score is within eps of its exact gain less that
        # constant, and every exact maximum clears max - 2 * eps.  A cut's
        # left sum is one segment of its feature's bins.
        target = _histogram(codes, rows, n_cells, y_sub)
        bounds = np.empty(2 * cell.size, dtype=np.intp)
        bounds[0::2] = first_bin[f_at]
        bounds[1::2] = cell + 1
        csum = np.add.reduceat(target, bounds)[0::2]
        screened = csum**2 / k + (total_sum - csum) ** 2 / (n - k)
        node_abs = abs_y[rows]
        total_sq = (y_sub**2).sum()
        scale = total_sq + node_abs.sum() * node_abs.max()
        # Without finite sums that cannot overflow there is no bound: then
        # every cut is verified.
        m = n + width
        eps = (
            _SCREEN_SLACK * m * _U / (1 - m * _U) * scale + 2.0**-1060
            if n * scale < 1e300
            else np.inf
        )
        best = screened.max()
        keep = (~(screened < best - 2 * eps)).nonzero()[0]
        base_sse = total_sq - total_sum**2 / n
        # The pick is the reference's first exact maximum in (feature, cut)
        # order (its first maximum per feature, then the first feature with
        # the strictly largest one), and it must beat _MIN_GAIN.  One kept
        # cut is the only candidate; when its screened score, less the
        # bound twice over, already beats _MIN_GAIN, no exact gain is
        # needed.
        if keep.size == 1 and best + (base_sse - total_sq - 2 * eps) > _MIN_GAIN:
            win = keep[0]
        else:
            # Verify: the exact gains of the kept cuts, feature by feature.
            f_keep, k_keep = f_at[keep], k[keep]
            bounds = [0, keep.size]
            if f_keep[0] != f_keep[-1]:
                bounds[1:1] = (f_keep[1:] != f_keep[:-1]).nonzero()[0] + 1
            exact = [
                _exact_gains(
                    codes[:, f_keep[a]], rows, y, k_keep[a:b],
                    total_sum, total_sq, base_sse,
                )
                for a, b in zip(bounds[:-1], bounds[1:])
            ]
            exact = exact[0] if len(exact) == 1 else np.concatenate(exact)
            win = int(exact.argmax())
            if not exact[win] > _MIN_GAIN:
                continue
            win = keep[win]
        # The threshold is the midpoint of the values around the cut: its
        # bin's and the node's next non-empty bin's.  Split by it, as the
        # reference does; a node that would leave a side empty (the
        # midpoint of two adjacent floats can round up to the upper one)
        # stays a leaf.
        col = cuttable[f_at[win]]
        thr = float(0.5 * (bin_value[cell[win]] + bin_value[upper[win]]))
        go_left = xt[col, rows] <= thr
        left_rows, right_rows = rows[go_left], rows[~go_left]
        if left_rows.size == 0 or right_rows.size == 0:
            continue
        feature[node] = int(col)
        threshold[node] = thr
        # Count the smaller child; the larger one's counts are the rest.
        # Children that can only be leaves need no counts.
        left_counts = right_counts = None
        if depth + 1 < max_depth and max(left_rows.size, right_rows.size) >= 2 * lo:
            if left_rows.size <= right_rows.size:
                left_counts = _histogram(codes, left_rows, n_cells)
                right_counts = counts - left_counts
            else:
                right_counts = _histogram(codes, right_rows, n_cells)
                left_counts = counts - right_counts
        stack.append((right_rows, right_counts, None, depth + 1, node, 1))
        stack.append((left_rows, left_counts, None, depth + 1, node, 0))
    return (
        np.array(feature, dtype=np.intp),
        np.array(threshold, dtype=float),
        np.array(children, dtype=np.intp).reshape(-1, 2),
        np.array(value, dtype=float),
        reached,
        leaf,
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
        self.feature, self.threshold, self.children, self.value, self.depth_, _ = (
            _grow(*_bin(x), y, self.max_depth)
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
        pred = np.full(x.shape[0], self.base_)
        # Every stage splits the same matrix, so it is binned once.
        binned = _bin(x)
        # Stacked with global child ids; the leading empty block lets zero
        # estimators concatenate like any other count.
        blocks = [_no_nodes()]
        roots = []
        n_nodes = 0
        for _ in range(self.n_estimators):
            feature, threshold, children, value, depth, leaf = _grow(
                *binned, y - pred, self.max_depth
            )
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
