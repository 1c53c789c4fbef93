"""The array GBDT kernel reproduces the object-graph GBDT bit for bit.

``tests/gbdt_reference.py`` holds the model as it stood before the rewrite
(``_Node`` objects, a recursive build that argsorts every (node, feature)
pair, a per-row Python walk).  Every comparison here is ``np.array_equal``
or ``==``: the kernel keeps each floating-point operation's operands and
order and every tie-break, so there is no tolerance to set.
"""

import copy
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.lifecycle import model_fingerprint
from repro.ml import gbdt
from repro.ml.gbdt import GradientBoostedTrees, RegressionTree
from tests.gbdt_reference import (
    ReferenceGradientBoostedTrees,
    ReferenceRegressionTree,
    reference_node_table,
)

FAMILIES = ["continuous", "ties", "constant_columns", "one_hot"]


def make_x(rng, n, d, family):
    """``[n, d]`` features of one family; the same call draws unseen rows."""
    x = rng.normal(size=(n, d))
    if family == "ties":
        # A handful of distinct values per column: most sorted neighbours tie.
        x = np.round(x * 1.5)
    elif family == "constant_columns":
        x[:, ::2] = 1.0
    elif family == "one_hot":
        # The flat query featurizer's shape: mostly 0/1 indicator columns
        # (the first two are complements -- equal partitions, so the winner
        # is decided by low bits and by first-wins), some never set.
        x = (rng.random((n, d)) < np.linspace(0.05, 0.6, d)).astype(float)
        x[:, 2::3] = 0.0
        if d >= 2:
            x[:, 1] = 1.0 - x[:, 0]
    return x


def make_y(rng, x):
    d = x.shape[1]
    return 2.0 * x[:, 0] + (x[:, d // 2] > 0.3) + rng.normal(size=x.shape[0])


NEAR_TIES = ["complements", "duplicates", "offset", "min_gain"]


def make_near_tie(rng, n, d, kind):
    """``(x, y)`` whose best cuts tie, or differ only in their low bits.

    ``complements`` pairs each indicator column with its complement and
    ``duplicates`` repeats two heavy-tie columns (equal partitions, so the
    first feature must win); ``offset`` adds a large common offset to the
    targets, so every gain is a difference of nearly equal sums; in
    ``min_gain`` the best gains sit around ``1e-12``, the least a split
    must beat.
    """
    x = (rng.random((n, d)) < rng.uniform(0.1, 0.9, d)).astype(float)
    y = x[:, 0] - 0.5 * x[:, -1] + 0.1 * rng.normal(size=n)
    if kind == "complements":
        x[:, 1::2] = 1.0 - x[:, 0 : 2 * (d // 2) : 2]
    elif kind == "duplicates":
        base = np.round(rng.normal(size=(n, 2)) * 1.5)
        x = base[:, np.arange(d) % 2]
        y = base[:, 0] + 0.1 * rng.normal(size=n)
    elif kind == "offset":
        x = np.round(rng.normal(size=(n, d)) * 1.5)
        y = 10.0 ** rng.integers(6, 10) + x[:, 0] + rng.normal(size=n)
    elif kind == "min_gain":
        # Cutting column 0 gains step**2 * k * (n - k) / n, about 1e-12.
        k = max(int(x[:, 0].sum()), 1)
        step = np.sqrt(1e-12 * n / (k * max(n - k, 1))) * rng.uniform(0.5, 2.0)
        y = step * x[:, 0] + 0.1 * step * x[:, -1]
    return x, y


def make_four_kinds(rng, sizes, d, nan_share):
    """``(x, y, group)``: four row groups that the first two depths separate
    on column 0, so that depth 2 holds a node that splits (group 0), one
    too small to split (group 1, under ``2 * MIN_SAMPLES_LEAF`` rows), one
    whose features are constant over its rows (group 2, no valid cut) and
    one whose target is constant (group 3, every gain 0, under
    ``_MIN_GAIN``).  Group 0's target follows column 1; the last column
    carries NaNs."""
    group = rng.permutation(np.repeat([0, 1, 2, 3], sizes))
    n = group.size
    x = np.round(rng.normal(size=(n, d)), 1)
    x[:, 0] = 10.0 * group
    x[group == 2, 1:] = 0.5
    x[rng.random(n) < nan_share, -1] = np.nan
    y = np.array([0.0, 10.0, 100.0, 110.0])[group]
    noisy = group < 3
    y[noisy] += 0.1 * rng.normal(size=noisy.sum())
    y[group == 0] += x[group == 0, 1]
    return x, y, group


def query_feature_matrix(seed):
    """The matrix of ``test_query_feature_shape_at_serving_size``."""
    rng = np.random.default_rng(seed)
    n, d = 347, 90
    x = (rng.random((n, d)) < rng.uniform(0.03, 0.5, d)).astype(float)
    x[:, :28] = 0.0
    x[:, 29] = 1.0 - x[:, 28]
    x[:, 78:] *= rng.random((n, 12))
    y = 3 + 2 * x[:, 30] - x[:, 40] + 4 * x[:, 80] + rng.normal(scale=0.5, size=n)
    return x, y


def node_depths(model):
    """Each node's depth in its tree, walked from the roots."""
    depth = np.zeros(model.feature_.size, dtype=np.intp)
    level = list(model.roots_)
    d = 0
    while level:
        depth[level] = d
        level = [
            child
            for node in level
            if model.feature_[node] >= 0
            for child in model.children_[node]
        ]
        d += 1
    return depth


def assert_same_trees(ref_trees, table):
    """``table`` = the kernel's (roots, feature, threshold, children, value)."""
    expect = reference_node_table(ref_trees)
    for (name, want), got in zip(expect.items(), table):
        assert np.array_equal(want, got), name
        assert want.dtype == got.dtype, name


def assert_same_model(ref, new, inputs):
    assert ref.base_ == new.base_
    assert_same_trees(
        ref.trees_,
        (new.roots_, new.feature_, new.threshold_, new.children_, new.value_),
    )
    for x in inputs:
        assert np.array_equal(ref.predict(x), new.predict(x))
        assert np.array_equal(ref.staged_predict(x), new.staged_predict(x))


def tree_table(tree):
    """A lone :class:`RegressionTree` as a one-root table."""
    root = np.zeros(1, dtype=np.intp)
    return root, tree.feature, tree.threshold, tree.children, tree.value


def fit_pair(x, y, **kwargs):
    return (
        ReferenceGradientBoostedTrees(**kwargs).fit(x, y),
        GradientBoostedTrees(**kwargs).fit(x, y),
    )


class TestDifferential:
    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 400),
        d=st.integers(1, 12),
        max_depth=st.integers(0, 6),
        family=st.sampled_from(FAMILIES),
    )
    def test_ensemble_and_tree_match_the_reference(self, seed, n, d, max_depth, family):
        rng = np.random.default_rng(seed)
        x = make_x(rng, n, d, family)
        y = make_y(rng, x)
        unseen = make_x(rng, 23, d, family)
        ref, new = fit_pair(
            x, y, n_estimators=6, max_depth=max_depth, learning_rate=0.3, seed=seed
        )
        # 2-D train rows, 2-D unseen rows, one 1-D row.
        assert_same_model(ref, new, [x, unseen, unseen[0]])
        ref_tree = ReferenceRegressionTree(max_depth=max_depth).fit(x, y)
        tree = RegressionTree(max_depth=max_depth).fit(x, y)
        assert_same_trees([ref_tree], tree_table(tree))
        for rows in (x, unseen, unseen[0]):
            assert np.array_equal(ref_tree.predict(rows), tree.predict(rows))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_query_feature_shape_at_serving_size(self, seed):
        """90 columns, 28 never set, median two distinct values, 60 stages of
        depth 5: the matrix ``GBDTQueryEstimator`` fits in the drift scenario."""
        rng = np.random.default_rng(seed)
        n, d = 347, 90
        x = (rng.random((n, d)) < rng.uniform(0.03, 0.5, d)).astype(float)
        x[:, :28] = 0.0
        x[:, 29] = 1.0 - x[:, 28]
        x[:, 78:] *= rng.random((n, 12))
        y = 3 + 2 * x[:, 30] - x[:, 40] + 4 * x[:, 80] + rng.normal(scale=0.5, size=n)
        assert np.median([np.unique(col).size for col in x.T]) == 2
        ref, new = fit_pair(
            x, y, n_estimators=60, max_depth=5, learning_rate=0.15, seed=seed
        )
        assert_same_model(ref, new, [x, x[:40] * 0.5, x[7]])

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(10, 300),
        d=st.integers(2, 8),
        max_depth=st.integers(1, 5),
        kind=st.sampled_from(NEAR_TIES),
    )
    def test_near_ties_match_the_reference(self, seed, n, d, max_depth, kind):
        """The screen keeps every cut within its error bound of the best
        and verifies them exactly, so even ties and low-bit differences
        pick the reference's cut."""
        rng = np.random.default_rng(seed)
        x, y = make_near_tie(rng, n, d, kind)
        ref, new = fit_pair(
            x, y, n_estimators=4, max_depth=max_depth, learning_rate=0.5, seed=seed
        )
        assert_same_model(ref, new, [x, x[0]])
        ref_tree = ReferenceRegressionTree(max_depth=max_depth).fit(x, y)
        tree = RegressionTree(max_depth=max_depth).fit(x, y)
        assert_same_trees([ref_tree], tree_table(tree))
        assert np.array_equal(ref_tree.predict(x), tree.predict(x))

    def test_the_screen_verifies_at_most_two_features_per_split(self, monkeypatch):
        """Exact verification runs only on the features whose screened cuts
        come within the error bound of the best one: on the serving-size
        query matrix that is at most two per split node, where verifying
        every feature with a valid cut would be dozens at the root."""
        calls = []
        exact = gbdt._exact_gains

        def counting(*args):
            calls.append(args[3].size)
            return exact(*args)

        monkeypatch.setattr(gbdt, "_exact_gains", counting)
        x, y = query_feature_matrix(0)
        model = GradientBoostedTrees(
            n_estimators=60, max_depth=5, learning_rate=0.15
        ).fit(x, y)
        splits = int((model.feature_ >= 0).sum())
        assert splits > 0
        assert len(calls) <= 2 * splits

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        sizes=st.tuples(
            st.integers(10, 60), st.integers(5, 9), st.integers(10, 40), st.integers(10, 40)
        ),
        d=st.integers(3, 6),
        nan_share=st.sampled_from([0.0, 0.2]),
        max_depth=st.integers(0, 8),
    )
    def test_a_depth_of_every_kind_of_node(self, seed, sizes, d, nan_share, max_depth):
        """One depth holds a node that splits, one stopped by
        MIN_SAMPLES_LEAF, one with no valid cut and one whose best gain
        misses _MIN_GAIN, and a column holds NaNs; trees up to depth 8 are
        the reference's."""
        rng = np.random.default_rng(seed)
        x, y, group = make_four_kinds(rng, sizes, d, nan_share)
        ref, new = fit_pair(
            x, y, n_estimators=4, max_depth=max_depth, learning_rate=0.5, seed=seed
        )
        assert_same_model(ref, new, [x, x[0]])
        ref_tree = ReferenceRegressionTree(max_depth=max_depth).fit(x, y)
        tree = RegressionTree(max_depth=max_depth).fit(x, y)
        assert_same_trees([ref_tree], tree_table(tree))
        if max_depth >= 3:
            root = np.zeros(x.shape[0], dtype=np.intp)
            at = gbdt._descend(x, tree.feature, tree.threshold, tree.children, root, 2)
            nodes = [np.unique(at[group == g]) for g in range(4)]
            assert all(node.size == 1 for node in nodes)
            assert np.unique(np.concatenate(nodes)).size == 4
            assert tree.feature[nodes[0][0]] >= 0
            assert (tree.feature[np.concatenate(nodes[1:])] == -1).all()

    def test_a_node_pays_one_target_histogram(self, monkeypatch):
        """On the serving-size query matrix every node with a valid cut
        splits, and each takes one weighted ``bincount``; a split counts
        only its smaller child, and only when its children may split; and
        a split whose one kept cut the bound already puts above
        ``_MIN_GAIN`` takes no exact gain, which is nearly every split
        here."""
        weighted, counted, verified = [], [], []
        histogram, exact = gbdt._histogram, gbdt._exact_gains

        def histogram_probe(*args):
            (weighted if len(args) > 3 and args[3] is not None else counted).append(1)
            return histogram(*args)

        def exact_probe(*args):
            verified.append(1)
            return exact(*args)

        monkeypatch.setattr(gbdt, "_histogram", histogram_probe)
        monkeypatch.setattr(gbdt, "_exact_gains", exact_probe)
        x, y = query_feature_matrix(0)
        max_depth = 5
        model = GradientBoostedTrees(
            n_estimators=60, max_depth=max_depth, learning_rate=0.15
        ).fit(x, y)
        split = model.feature_ >= 0
        splits = int(split.sum())
        assert splits > 4 * model.n_estimators
        assert len(weighted) == splits
        may_split_below = split & (node_depths(model) < max_depth - 1)
        assert 0 < len(counted) <= int(may_split_below.sum())
        assert len(verified) <= splits // 10

    @pytest.mark.parametrize("spoil", ["nan", "inf", "huge"])
    def test_targets_the_screen_cannot_bound(self, spoil):
        """A NaN or inf target makes every gain NaN: the reference's argmax
        picks a NaN, which does not beat the least gain, so the node is a
        leaf.  Targets near 1e150 keep finite gains whose sums of squares
        leave no room for the screen's bound.  Either way every valid cut
        is verified, and the trees are the reference's."""
        rng = np.random.default_rng(9)
        x = make_x(rng, 80, 4, "ties")
        y = make_y(rng, x)
        if spoil == "huge":
            y = y * 1e150
        else:
            y[[3, 50]] = float(spoil)
        with np.errstate(invalid="ignore", over="ignore"):
            ref_tree = ReferenceRegressionTree(max_depth=3).fit(x, y)
            tree = RegressionTree(max_depth=3).fit(x, y)
            ref, new = fit_pair(x, y, n_estimators=3, max_depth=3, learning_rate=0.5)
        expect = reference_node_table([ref_tree])
        for name, got in zip(expect, tree_table(tree)):
            assert np.array_equal(expect[name], got, equal_nan=True), name
        expect = reference_node_table(ref.trees_)
        got = (new.roots_, new.feature_, new.threshold_, new.children_, new.value_)
        for name, table in zip(expect, got):
            assert np.array_equal(expect[name], table, equal_nan=True), name
        assert np.array_equal(ref.predict(x), new.predict(x), equal_nan=True)
        if spoil != "huge":
            assert (tree.feature == -1).all() and (new.feature_ == -1).all()
        else:
            assert (tree.feature >= 0).any()

    @pytest.mark.parametrize("max_depth", [0, 1, 3])
    def test_constant_target_and_no_warning_from_unfiltered_cuts(self, max_depth):
        # The reference drops invalid cuts before it divides by k and n - k;
        # scoring every cut at once must not warn on a constant target.
        rng = np.random.default_rng(5)
        x = make_x(rng, 60, 4, "ties")
        for y in (np.full(60, 7.0), make_y(rng, x)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                ref, new = fit_pair(x, y, n_estimators=4, max_depth=max_depth)
            assert_same_model(ref, new, [x])

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_fewer_rows_than_two_leaves(self, n):
        rng = np.random.default_rng(n)
        x = make_x(rng, n, 3, "continuous")
        ref, new = fit_pair(x, make_y(rng, x), n_estimators=3)
        assert_same_model(ref, new, [x])
        assert (new.feature_ == -1).all()  # 2 * 5 > n: every tree is its root

    def test_zero_estimators_and_zero_depth(self):
        rng = np.random.default_rng(0)
        x = make_x(rng, 40, 3, "continuous")
        y = make_y(rng, x)
        for kwargs in (dict(n_estimators=0), dict(n_estimators=3, max_depth=0)):
            ref, new = fit_pair(x, y, **kwargs)
            assert_same_model(ref, new, [x, x[0]])

    def test_equal_gains_take_the_first_cut_of_the_first_feature(self):
        # Cutting off the low ten or the high ten scores the same to the
        # bit (base - 0 - 5 and base - 5 - 0); column 1 repeats column 0.
        x = np.repeat([0.0, 1.0, 2.0], 10)[:, None] * np.ones((1, 2))
        y = np.repeat([1.0, 0.0, 1.0], 10)
        ref_tree = ReferenceRegressionTree(max_depth=1).fit(x, y)
        tree = RegressionTree(max_depth=1).fit(x, y)
        assert (tree.feature[0], tree.threshold[0]) == (0, 0.5)
        assert_same_trees([ref_tree], tree_table(tree))

    def test_equal_gains_across_features_and_cuts_take_the_first_pair(self):
        """Columns 1 and 3 repeat one column whose low and high cuts score
        the same to the bit; 0 and 2 can never be cut.  Dropping those once
        per fit must neither renumber the features nor change which of the
        four equal (feature, cut) pairs wins: the first."""
        v = np.repeat([0.0, 1.0, 2.0], 10)
        x = np.column_stack([np.full(30, 4.0), v, [np.nan] * 29 + [1.0], v])
        y = np.repeat([1.0, 0.0, 1.0], 10)
        ref_tree = ReferenceRegressionTree(max_depth=1).fit(x, y)
        tree = RegressionTree(max_depth=1).fit(x, y)
        assert (tree.feature[0], tree.threshold[0]) == (1, 0.5)
        assert_same_trees([ref_tree], tree_table(tree))
        ref, new = fit_pair(x, y, n_estimators=3, max_depth=2)
        assert new.feature_[0] == 1
        assert_same_model(ref, new, [x])

    @pytest.mark.parametrize(
        "shape", ["all_constant", "some_constant", "nan_column", "two_values", "three_values"]
    )
    def test_cuttable_columns_and_columns_no_node_can_cut(self, shape):
        rng = np.random.default_rng(17)
        n, d = 150, 8
        x = rng.normal(size=(n, d))
        never = []  # columns without a strictly increasing sorted pair
        if shape == "all_constant":
            x[:] = 2.5
            never = list(range(d))
        elif shape == "some_constant":
            x[:, 0] = 1.0
            x[:, 3] = np.nan
            x[::3, 5] = np.nan
            x[1::3, 5] = x[2::3, 5] = -4.0  # one value and NaNs
            never = [0, 3, 5]
        elif shape == "nan_column":
            # NaN sorts last and fails every ``<``: min < max would call this
            # column constant, yet its other values still cut.
            x[rng.random(n) < 0.3, 2] = np.nan
        else:
            levels = 2 if shape == "two_values" else 3
            x = rng.integers(0, levels, size=(n, d)).astype(float)
        y = np.nan_to_num(3.0 * x[:, 2], nan=-2.0) + x[:, 6] + rng.normal(size=n)
        unseen = x[rng.permutation(n)[:25]] + 0.25
        ref, new = fit_pair(
            x, y, n_estimators=8, max_depth=4, learning_rate=0.3, seed=3
        )
        assert_same_model(ref, new, [x, unseen])
        assert not np.isin(new.feature_, never).any()
        if shape == "nan_column":
            assert 2 in new.feature_
        ref_tree = ReferenceRegressionTree(max_depth=4).fit(x, y)
        tree = RegressionTree(max_depth=4).fit(x, y)
        assert_same_trees([ref_tree], tree_table(tree))
        assert np.array_equal(ref_tree.predict(unseen), tree.predict(unseen))

    def test_a_valid_cut_only_in_the_sibling_keeps_the_feature_there(self):
        """Column 1 varies only where column 0 is high.  The root splits on
        column 0; the low child has no cut on column 1 and drops it, the
        high child must still split on it -- dropping per level would not."""
        rng = np.random.default_rng(3)
        x = np.zeros((80, 2))
        x[40:, 0] = 1.0
        x[40:, 1] = rng.random(40)
        y = 10.0 * x[:, 0] + 5.0 * (x[:, 1] > 0.5) + 0.01 * rng.normal(size=80)
        ref_tree = ReferenceRegressionTree(max_depth=3).fit(x, y)
        tree = RegressionTree(max_depth=3).fit(x, y)
        assert tree.feature[0] == 0
        assert 1 in tree.feature[tree.children[0, 1] :]
        assert_same_trees([ref_tree], tree_table(tree))


class TestPredict:
    def fitted(self, **kwargs):
        rng = np.random.default_rng(11)
        x = make_x(rng, 150, 5, "continuous")
        y = make_y(rng, x)
        args = dict(n_estimators=12, max_depth=4, seed=1, **kwargs)
        return (*fit_pair(x, y, **args), x)

    def test_nan_in_a_predict_row_goes_right(self):
        ref, new, x = self.fitted()
        rows = x[:30].copy()
        rows[::2, 0] = np.nan
        rows[::3, 2] = np.nan
        rows[5] = np.nan
        assert np.array_equal(ref.predict(rows), new.predict(rows))
        assert np.array_equal(ref.staged_predict(rows), new.staged_predict(rows))
        # All-NaN row: right at every split of every tree.
        node = new.roots_.copy()
        for _ in range(new.depth_):
            node = new.children_[node, 1]
        expect = np.cumsum(np.r_[new.base_, new.learning_rate * new.value_[node]])[-1]
        assert new.predict(rows[5])[0] == expect

    def test_threshold_is_the_midpoint_and_equal_goes_left(self):
        x = np.repeat([0.0, 1.0], 5)[:, None]
        y = np.repeat([0.0, 4.0], 5)
        tree = RegressionTree(max_depth=1).fit(x, y)
        assert tree.threshold[0] == 0.5
        at, above = np.array([[0.5]]), np.array([[np.nextafter(0.5, 1.0)]])
        assert tree.predict(at)[0] == 0.0
        assert tree.predict(above)[0] == 4.0
        ref = ReferenceRegressionTree(max_depth=1).fit(x, y)
        assert ref.predict(at)[0] == 0.0 and ref.predict(above)[0] == 4.0

    def test_running_total_adds_stage_by_stage(self):
        """The low bits of the total depend on the order of addition; the
        ensemble's must be base, then tree 0, then tree 1, ..."""
        ref, new, x = self.fitted(learning_rate=0.137)
        total = np.full(x.shape[0], new.base_)
        stages = new.staged_predict(x)
        for t, tree in enumerate(ref.trees_):
            total = total + new.learning_rate * tree.predict(x)
            assert np.array_equal(total, stages[t])
        assert np.array_equal(total, new.predict(x))
        assert new.predict(x[3])[0] == total[3]

    def test_copies_predict_identically(self):
        _, new, x = self.fitted()
        want = new.predict(x)
        for clone in (copy.deepcopy(new), pickle.loads(pickle.dumps(new))):
            assert np.array_equal(clone.predict(x), want)
            assert model_fingerprint(clone) == model_fingerprint(new)


class TestWhatAModelHolds:
    def test_equal_fits_fingerprint_equal_and_a_changed_leaf_does_not(self):
        rng = np.random.default_rng(2)
        x = make_x(rng, 120, 6, "one_hot")
        y = make_y(rng, x)
        a = GradientBoostedTrees(n_estimators=10, seed=4).fit(x, y)
        b = GradientBoostedTrees(n_estimators=10, seed=4).fit(x.copy(), y.copy())
        assert model_fingerprint(a) == model_fingerprint(b)
        b.value_[-1] += 1.0
        assert model_fingerprint(a) != model_fingerprint(b)

    @pytest.mark.parametrize("learning_rate", [1.0, 0.7])
    def test_nothing_the_size_of_the_training_set_survives_fit(self, learning_rate):
        rng = np.random.default_rng(7)
        n = 211  # prime, so no node-table shape can contain it by accident
        x = make_x(rng, n, 5, "continuous")
        y = make_y(rng, x)
        models = [
            GradientBoostedTrees(
                n_estimators=4, max_depth=2, learning_rate=learning_rate
            ).fit(x, y),
            RegressionTree(max_depth=2).fit(x, y),
        ]
        for model in models:
            for name, attr in vars(model).items():
                if isinstance(attr, np.ndarray):
                    assert n not in attr.shape, name
                else:
                    assert isinstance(attr, (int, float, type(None))), name
