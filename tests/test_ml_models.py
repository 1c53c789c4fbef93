"""Tests for tree-conv, set-conv, MADE, GBDT, k-means and Chow-Liu."""

import numpy as np
import pytest

from repro.ml import (
    GradientBoostedTrees,
    KMeans,
    MaskedAutoregressiveNetwork,
    PlanTreeBatch,
    SetConvNet,
    TreeConvNet,
    chow_liu_tree,
)
from repro.ml.chowliu import mutual_information
from repro.ml.gbdt import RegressionTree
from repro.ml.treeconv import DTYPE


def random_tree(rng, n_max=6, dim=4):
    """Random left-deep binary tree arrays."""
    n = int(rng.integers(1, n_max))
    feats = rng.normal(size=(n, dim))
    left = np.full(n, -1)
    right = np.full(n, -1)
    # chain: node i has children i+1 (left) for internal structure
    for i in range(n - 1):
        left[i] = i + 1
    return feats, left, right


class TestPlanTreeBatch:
    def test_null_row_zero(self):
        # A missing child reads the null row: zeros in the layer-1 rows.
        rng = np.random.default_rng(0)
        feats, left, right = random_tree(rng)
        batch = PlanTreeBatch.from_trees([(feats, left, right)])
        feats = feats.astype(DTYPE)  # the batch's dtype
        d = feats.shape[1]
        assert batch.layer1.dtype == DTYPE
        assert np.array_equal(batch.layer1[:, :d], feats)
        for i in range(len(feats)):
            for col, child in ((d, left[i]), (2 * d, right[i])):
                want = feats[child] if child >= 0 else np.zeros(d)
                assert np.array_equal(batch.layer1[i, col : col + d], want)

    def test_offsets(self):
        rng = np.random.default_rng(0)
        trees = [random_tree(rng) for _ in range(3)]
        batch = PlanTreeBatch.from_trees(trees)
        total = sum(t[0].shape[0] for t in trees)
        assert batch.layer1.shape == (total, 3 * trees[0][0].shape[1])
        assert batch.n_trees == 3
        starts = np.cumsum([0] + [len(t[0]) for t in trees])[:-1]
        for (f, left, _), start in zip(trees, starts):
            rows = np.flatnonzero(left >= 0)
            child = batch.idx3[start + rows, 1]
            assert np.array_equal(child, start + left[rows] + 1)  # +1: the null row

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PlanTreeBatch.from_trees([])

    def test_rejects_dim_mismatch(self):
        a = (np.ones((2, 3)), np.array([-1, -1]), np.array([-1, -1]))
        b = (np.ones((2, 4)), np.array([-1, -1]), np.array([-1, -1]))
        with pytest.raises(ValueError):
            PlanTreeBatch.from_trees([a, b])


class TestTreeConvNet:
    def test_training_reduces_loss(self):
        rng = np.random.default_rng(0)
        trees = [random_tree(rng) for _ in range(60)]
        y = np.array([t[0].sum() for t in trees])
        net = TreeConvNet(4, (16,), (8,), seed=0)
        losses = net.fit(trees, y, epochs=60, lr=5e-3)
        assert losses[-1] < losses[0] * 0.3

    def test_structure_sensitivity(self):
        # Same multiset of node features, different arrangement ->
        # different plan embedding (tree conv must see child positions).
        feats = np.eye(3)
        chain = (feats, np.array([1, 2, -1]), np.array([-1, -1, -1]))
        flipped = (feats[::-1].copy(), np.array([1, 2, -1]), np.array([-1, -1, -1]))
        net = TreeConvNet(3, (8,), (4,), seed=1)
        emb = net.embed(PlanTreeBatch.from_trees([chain, flipped]))
        assert not np.allclose(emb[0], emb[1])

    def test_predict_empty(self):
        net = TreeConvNet(4)
        assert net.predict([]).shape == (0, 1)

    def test_fit_validates_lengths(self):
        net = TreeConvNet(4)
        with pytest.raises(ValueError):
            net.fit([random_tree(np.random.default_rng(0))], np.zeros(2))


class TestSetConvNet:
    def _samples(self, rng, n):
        out = []
        for _ in range(n):
            k = int(rng.integers(1, 4))
            out.append(
                {
                    "a": rng.normal(size=(k, 3)),
                    "b": rng.normal(size=(int(rng.integers(0, 3)), 2)),
                }
            )
        return out

    def test_fit_and_predict(self):
        rng = np.random.default_rng(0)
        samples = self._samples(rng, 80)
        y = np.array([0.1 + 0.5 * (s["a"].mean() > 0) for s in samples])
        net = SetConvNet({"a": 3, "b": 2}, seed=0)
        losses = net.fit(samples, y, epochs=40)
        assert losses[-1] < losses[0]
        preds = net.predict(samples)
        assert preds.shape == (80,)
        assert np.all((preds >= 0) & (preds <= 1))

    def test_empty_set_handled(self):
        net = SetConvNet({"a": 3}, seed=0)
        out = net.predict([{"a": np.zeros((0, 3))}])
        assert out.shape == (1,)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        net = SetConvNet({"a": 3}, seed=0)
        items = rng.normal(size=(4, 3))
        a = net.predict([{"a": items}])[0]
        b = net.predict([{"a": items[::-1].copy()}])[0]
        assert a == pytest.approx(b, abs=1e-9)

    def test_rejects_no_modules(self):
        with pytest.raises(ValueError):
            SetConvNet({})


class TestMADE:
    def test_distribution_normalizes(self):
        rng = np.random.default_rng(0)
        rows = np.column_stack([rng.integers(0, 3, 200), rng.integers(0, 4, 200)])
        net = MaskedAutoregressiveNetwork([3, 4], hidden=(16,), seed=0)
        net.fit(rows, epochs=3)
        grid = np.array([[a, b] for a in range(3) for b in range(4)])
        joint = np.ones(len(grid))
        for col in range(2):
            probs = net.conditional_distribution(grid, col)
            joint *= probs[np.arange(len(grid)), grid[:, col]]
        assert joint.sum() == pytest.approx(1.0, abs=1e-6)

    def test_autoregressive_masking(self):
        # Column 0's conditional must not depend on column 1's value.
        net = MaskedAutoregressiveNetwork([3, 4], hidden=(16, 16), seed=0)
        rows_a = np.array([[1, 0]])
        rows_b = np.array([[1, 3]])
        pa = net.conditional_distribution(rows_a, 0)
        pb = net.conditional_distribution(rows_b, 0)
        assert np.allclose(pa, pb)

    def test_training_learns_marginal(self):
        rng = np.random.default_rng(1)
        rows = np.column_stack(
            [rng.choice(2, 500, p=[0.9, 0.1]), rng.integers(0, 2, 500)]
        )
        net = MaskedAutoregressiveNetwork([2, 2], hidden=(16,), seed=0)
        net.fit(rows, epochs=40, lr=2e-2)
        p0 = net.conditional_distribution(np.zeros((1, 2), int), 0)[0]
        assert p0[0] > 0.7

    def test_learns_dependency(self):
        # col1 = col0 deterministic: P(x1=v | x0=v) should be high.
        rng = np.random.default_rng(2)
        c0 = rng.integers(0, 3, 600)
        rows = np.column_stack([c0, c0])
        net = MaskedAutoregressiveNetwork([3, 3], hidden=(32,), seed=0)
        net.fit(rows, epochs=30)
        probs = net.conditional_distribution(np.array([[2, 0]]), 1)[0]
        assert probs[2] > 0.8

    def test_sampling_matches_distribution(self):
        rng = np.random.default_rng(3)
        rows = np.column_stack([rng.choice(2, 500, p=[0.8, 0.2])])
        net = MaskedAutoregressiveNetwork([2], hidden=(8,), seed=0)
        net.fit(rows, epochs=40, lr=2e-2)
        rng = np.random.default_rng(0)
        assert abs(net.box_probability([np.array([0])], 500, rng) - 0.8) < 0.1
        # an unconstrained walk keeps all the mass; an empty box none of it
        assert net.box_probability([None], 500, rng) == pytest.approx(1.0)
        assert net.box_probability([np.array([], dtype=int)], 500, rng) == 0.0

    def test_rejects_out_of_domain(self):
        net = MaskedAutoregressiveNetwork([3, 3])
        with pytest.raises(ValueError):
            net.encode(np.array([[3, 0]]))


class TestGBDT:
    def test_tree_splits_step_function(self):
        x = np.linspace(0, 1, 100)[:, None]
        y = (x[:, 0] > 0.5).astype(float)
        tree = RegressionTree(max_depth=2).fit(x, y)
        preds = tree.predict(x)
        assert ((preds > 0.5) == (y > 0.5)).mean() > 0.95

    def test_boosting_improves_over_single_tree(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(300, 3))
        y = np.sin(x[:, 0] * 2) + x[:, 1] ** 2
        single = RegressionTree(max_depth=3).fit(x, y)
        boosted = GradientBoostedTrees(n_estimators=40, max_depth=3, seed=0).fit(x, y)
        mse_single = float(((single.predict(x) - y) ** 2).mean())
        mse_boosted = float(((boosted.predict(x) - y) ** 2).mean())
        assert mse_boosted < mse_single * 0.5

    def test_staged_predictions_monotone_improvement(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(200, 2))
        y = x[:, 0] * 3
        model = GradientBoostedTrees(n_estimators=20, seed=0).fit(x, y)
        stages = model.staged_predict(x)
        first = float(((stages[0] - y) ** 2).mean())
        last = float(((stages[-1] - y) ** 2).mean())
        assert last < first

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            GradientBoostedTrees().fit(np.zeros((0, 2)), np.zeros(0))

    def test_constant_target(self):
        x = np.random.default_rng(0).normal(size=(50, 2))
        model = GradientBoostedTrees(n_estimators=5, seed=0).fit(x, np.full(50, 7.0))
        assert np.allclose(model.predict(x), 7.0, atol=1e-9)

    @pytest.mark.parametrize("model", [GradientBoostedTrees, RegressionTree])
    def test_fit_rejects_mismatched_shapes(self, model):
        x = np.random.default_rng(0).normal(size=(30, 3))
        y = x[:, 0]
        with pytest.raises(ValueError, match="length mismatch"):
            model().fit(x, y[:10])
        with pytest.raises(ValueError, match="2-D"):
            model().fit(x[:, 0], y)
        with pytest.raises(ValueError, match="2-D"):
            model().fit(x[:, :, None], y)

    @pytest.mark.parametrize("model", [GradientBoostedTrees, RegressionTree])
    def test_predict_rejects_a_wrong_feature_count(self, model):
        x = np.random.default_rng(0).normal(size=(30, 3))
        fitted = model().fit(x, x[:, 0])
        assert fitted.n_features_ == 3
        for wrong in (x[:, :2], np.column_stack([x, x]), x[0, :2], x[:, :, None]):
            with pytest.raises(ValueError):
                fitted.predict(wrong)
        with pytest.raises(ValueError, match="2 features.*fit on 3"):
            fitted.predict(x[:, :2])
        assert fitted.predict(x[0]).shape == (1,)
        if model is GradientBoostedTrees:
            with pytest.raises(ValueError, match="6 features.*fit on 3"):
                fitted.staged_predict(np.column_stack([x, x]))

    def test_negative_parameters_are_rejected_and_zero_is_not(self):
        with pytest.raises(ValueError, match="max_depth"):
            RegressionTree(max_depth=-1)
        with pytest.raises(ValueError, match="max_depth"):
            GradientBoostedTrees(max_depth=-1)
        with pytest.raises(ValueError, match="n_estimators"):
            GradientBoostedTrees(n_estimators=-1)
        x = np.random.default_rng(0).normal(size=(30, 2))
        y = x[:, 0]
        stump = RegressionTree(max_depth=0).fit(x, y)
        assert np.array_equal(stump.predict(x), np.full(30, y.mean()))
        empty = GradientBoostedTrees(n_estimators=0).fit(x, y)
        assert np.array_equal(empty.predict(x), np.full(30, y.mean()))
        assert empty.staged_predict(x).shape == (0, 30)


class TestKMeans:
    def test_separates_clear_clusters(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0, 0.1, size=(50, 2))
        b = rng.normal(5, 0.1, size=(50, 2))
        km = KMeans(2, seed=0).fit(np.vstack([a, b]))
        labels = km.labels_
        assert len(set(labels[:50])) == 1
        assert len(set(labels[50:])) == 1
        assert labels[0] != labels[50]

    def test_predict_consistent_with_fit(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(40, 3))
        km = KMeans(3, seed=0).fit(x)
        assert np.array_equal(km.predict(x), km.labels_)

    def test_k_larger_than_n(self):
        x = np.array([[0.0], [1.0]])
        km = KMeans(5, seed=0).fit(x)
        assert km.centroids_.shape[0] <= 2

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            KMeans(2).predict(np.zeros((1, 2)))

    def test_inertia_nonnegative(self):
        x = np.random.default_rng(2).normal(size=(30, 2))
        km = KMeans(3, seed=0).fit(x)
        assert km.inertia_ >= 0.0


class TestChowLiu:
    def test_mutual_information_independent(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 4, 5000)
        b = rng.integers(0, 4, 5000)
        assert mutual_information(a, b) < 0.01

    def test_mutual_information_identical(self):
        a = np.random.default_rng(1).integers(0, 4, 1000)
        assert mutual_information(a, a) > 1.0

    def test_tree_structure_follows_dependencies(self):
        rng = np.random.default_rng(2)
        c0 = rng.integers(0, 4, 2000)
        c1 = (c0 + rng.integers(0, 2, 2000)) % 4  # depends on c0
        c2 = rng.integers(0, 4, 2000)  # independent
        edges = chow_liu_tree(np.column_stack([c0, c1, c2]))
        assert len(edges) == 2
        # c0-c1 must be an edge (strongest MI pair).
        pairs = {frozenset(e) for e in edges}
        assert frozenset((0, 1)) in pairs

    def test_every_nonroot_has_one_parent(self):
        rng = np.random.default_rng(3)
        data = rng.integers(0, 3, size=(500, 5))
        edges = chow_liu_tree(data)
        children = [c for _, c in edges]
        assert sorted(children) == [1, 2, 3, 4]

    def test_single_column(self):
        assert chow_liu_tree(np.zeros((10, 1), int)) == []
