"""The corpus training kernel reproduces the loop kernel bit for bit.

``tests/treeconv_reference.py`` holds the kernel as it stood before the
rewrite (per-batch re-stacking, per-tree arg-max loop, ``np.add.at``
scatters, eight-array Adam).  Every comparison here is ``np.array_equal``:
the rewrite keeps each floating-point operation's operands and order, so
there is no tolerance to set.  The reference computes in its parameters'
dtype, cast to the kernel's ``DTYPE`` (``ReferenceTreeConvNet.astype``).
"""

import collections
import copy
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.costmodel import PlanFeaturizer, UnifiedTransferableModel
from repro.costmodel.features import plan_to_tree_arrays
from repro.e2e import BaoOptimizer, LeroOptimizer, PairwisePlanComparator
from repro.ml.nn import Adam
from repro.ml.treeconv import (
    DTYPE,
    PLAN_ROWS,
    PlanTreeBatch,
    PlanTreeCorpus,
    TreeConvNet,
    _TreeConvLayer,
    shuffles,
)
from repro.sql import WorkloadGenerator
from tests.treeconv_reference import (
    ReferenceAdam,
    ReferencePlanTreeBatch,
    ReferenceTreeConvNet,
)


def random_binary_tree(rng, dim, n_leaves):
    """Pre-order ``(features, left, right)`` of a random full binary tree."""
    feats, left, right = [], [], []

    def build(k):
        i = len(feats)
        feats.append(rng.normal(size=dim))
        left.append(-1)
        right.append(-1)
        if k > 1:
            split = int(rng.integers(1, k))
            left[i] = build(split)
            right[i] = build(k - split)
        return i

    build(n_leaves)
    return np.stack(feats), np.array(left), np.array(right)


def ragged_forest(seed, n, dim=6, max_leaves=6):
    """Ragged sizes with single-node trees mixed in."""
    rng = np.random.default_rng(seed)
    return [
        random_binary_tree(rng, dim, int(rng.integers(1, max_leaves + 1)))
        for _ in range(n)
    ]


def nets(dim, **kwargs):
    args = dict(conv_channels=(8, 8), head_hidden=(4,), seed=3, **kwargs)
    return ReferenceTreeConvNet(dim, **args).astype(DTYPE), TreeConvNet(dim, **args)


def assert_same_bits(ref, new, trees):
    for p, q in zip(ref.parameters(), new.parameters()):
        assert np.array_equal(p, q)
    assert np.array_equal(ref.predict(trees), new.predict(trees))


class TestSameBits:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("batch_size", [32, 7])  # 7 does not divide 45
    def test_fit_on_ragged_forest(self, seed, batch_size):
        trees = ragged_forest(seed, 45)
        y = np.random.default_rng(seed).normal(size=45)
        ref, new = nets(6)
        kw = dict(epochs=4, batch_size=batch_size, seed=seed)
        assert ref.fit(trees, y, **kw) == new.fit(trees, y, **kw)
        assert_same_bits(ref, new, trees)

    def test_single_node_trees_only(self):
        rng = np.random.default_rng(4)
        trees = [random_binary_tree(rng, 5, 1) for _ in range(20)]
        y = rng.normal(size=20)
        ref, new = nets(5)
        assert ref.fit(trees, y, epochs=3) == new.fit(trees, y, epochs=3)
        assert_same_bits(ref, new, trees)

    def test_argmax_ties_resolve_to_first_row(self):
        # All-negative features through non-negative weights: every post-ReLU
        # row is zero, so every (tree, channel) arg-max is a tie.
        rng = np.random.default_rng(5)
        trees = [
            (-np.abs(f) - 1.0, l, r)
            for f, l, r in (random_binary_tree(rng, 4, 3) for _ in range(12))
        ]
        y = rng.normal(size=12)
        ref, new = nets(4)
        for net in (ref, new):
            for layer in net.conv_layers:
                layer.w[...] = np.abs(layer.w)
        batch = PlanTreeBatch.from_trees(trees)
        assert not new.embed(batch).any()
        assert np.array_equal(
            new._argmax, np.repeat(batch.tree_slices[:, :1], 8, axis=1)
        )
        assert ref.fit(trees, y, epochs=3) == new.fit(trees, y, epochs=3)
        assert_same_bits(ref, new, trees)

    def test_bootstrap_resample_with_duplicates(self):
        trees = ragged_forest(6, 30)
        rng = np.random.default_rng(6)
        y = rng.normal(size=30)
        idx = rng.integers(0, 30, size=30)
        assert len(set(idx.tolist())) < 30
        ref, new = nets(6)
        a = ref.fit([trees[i] for i in idx], y[idx], epochs=4, seed=1)
        b = new.fit(
            PlanTreeCorpus.from_trees(trees).resample(idx), y[idx], epochs=4, seed=1
        )
        assert a == b
        assert_same_bits(ref, new, trees)

    def test_copied_and_unpickled_nets_still_train(self):
        # The layers hold views into the flat buffers; a copy must re-bind
        # them or the optimizer would step a buffer nobody reads.
        trees = ragged_forest(8, 25)
        y = np.random.default_rng(8).normal(size=25)
        ref, new = nets(6)
        ref.fit(trees, y, epochs=4)
        for clone in (copy.deepcopy(new), pickle.loads(pickle.dumps(new))):
            clone.fit(trees, y, epochs=4)
            assert_same_bits(ref, clone, trees)
            assert np.shares_memory(clone.conv_layers[0].w, clone.flat_params)
        assert not np.array_equal(new.flat_params, clone.flat_params)


def chain(rng, dim, n, side):
    """``n`` nodes, each the ``side`` (0 = left, 1 = right) child of the last."""
    kids = np.append(np.arange(1, n), -1)
    none = np.full(n, -1)
    left, right = (kids, none) if side == 0 else (none, kids)
    return rng.normal(size=(n, dim)), left, right


def forest(seed, n, kind, dim=5):
    """``n`` trees of one ``kind``: random full binary, chains, single nodes,
    or a mix of all three."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        pick = kind if kind != "mixed" else ("random", "chain", "single")[i % 3]
        if pick == "random":
            out.append(random_binary_tree(rng, dim, int(rng.integers(1, 7))))
        elif pick == "chain":
            out.append(chain(rng, dim, int(rng.integers(1, 8)), i % 2))
        else:
            out.append(random_binary_tree(rng, dim, 1))
    return out


def signed_zero_ties(trees):
    """Node rows all-zero or all-negative.  Through non-negative weights and
    a zero bias a node's post-ReLU value is +0.0 when its own and its
    children's rows are zero and -0.0 otherwise, so every pooling is a tie
    of zeros.  Even trees zero their root and its children (+0.0 first, -0.0
    below), odd trees their leaves only (-0.0 first, +0.0 below)."""
    out = []
    for k, (f, l, r) in enumerate(trees):
        top = np.zeros(len(f), dtype=bool)
        top[[0] + [c for c in (l[0], r[0]) if c >= 0]] = True
        leaf = (l < 0) & (r < 0)
        zero = top if k % 2 == 0 else leaf & ~top
        if k % 2 and len(f) == 1:
            zero[:] = True
        rows = np.where(zero[:, None], 0.0, -1.0 - np.abs(f))
        out.append((rows, l, r))
    return out


class TestSameBitsOnForests:
    """Hypothesis forests: the corpus kernel against the loop kernel."""

    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 40),
        batch_size=st.integers(1, 40),
        kind=st.sampled_from(["random", "chain", "single", "mixed"]),
        resample=st.booleans(),
        ties=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_parameters_losses_and_predictions(
        self, seed, n, batch_size, kind, resample, ties
    ):
        trees = forest(seed, n, kind)
        rng = np.random.default_rng(seed + 1)
        y = rng.normal(size=n)
        channels = (8,) if ties else (8, 8)  # one layer keeps the signed zeros
        args = dict(conv_channels=channels, head_hidden=(4,), seed=seed % 7)
        ref, new = ReferenceTreeConvNet(5, **args).astype(DTYPE), TreeConvNet(5, **args)
        if ties:
            trees = signed_zero_ties(trees)
            for net in (ref, new):
                for layer in net.conv_layers:
                    layer.w[...] = np.abs(layer.w)
            pooled = new.embed(PlanTreeBatch.from_trees(trees))
            assert not pooled.any()
        kw = dict(epochs=3, batch_size=batch_size, seed=seed % 5)
        if resample:
            idx = rng.integers(0, n, size=n)
            want = ref.fit([trees[i] for i in idx], y[idx], **kw)
            got = new.fit(PlanTreeCorpus.from_trees(trees).resample(idx), y[idx], **kw)
        else:
            want, got = ref.fit(trees, y, **kw), new.fit(trees, y, **kw)
        assert want == got
        assert_same_bits(ref, new, trees)

    def test_signed_zero_ties_pool_the_first_row(self):
        trees = signed_zero_ties(forest(3, 6, "random"))
        args = dict(conv_channels=(8,), head_hidden=(4,), seed=3)
        ref, new = ReferenceTreeConvNet(5, **args).astype(DTYPE), TreeConvNet(5, **args)
        for net in (ref, new):
            for layer in net.conv_layers:
                layer.w[...] = np.abs(layer.w)
        got = new.embed(PlanTreeBatch.from_trees(trees))
        want = ref.embed(ReferencePlanTreeBatch.from_trees(trees))
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert np.signbit(got).any() and not np.signbit(got).all()

    @given(
        seed=st.integers(0, 10_000),
        n_queries=st.integers(4, 16),
        kind=st.sampled_from(["random", "chain", "mixed"]),
    )
    @settings(max_examples=10, deadline=None)
    def test_comparator_interleaved_pairs(self, imdb_db, seed, n_queries, kind):
        featurizer = PlanFeaturizer(imdb_db)
        dim = featurizer.node_dim
        rng = np.random.default_rng(seed)
        model = PairwisePlanComparator(featurizer, seed=seed % 3)
        for q in range(n_queries):
            trees = forest(seed + q, int(rng.integers(1, 6)), kind, dim=dim)
            for t in trees:
                model.record(f"q{q}", t, float(rng.choice([10.0, 10.2, 30.0, 80.0])))
        ref = ReferenceTreeConvNet(
            dim, conv_channels=(32, 32), head_hidden=(16,), seed=seed % 3
        ).astype(DTYPE)
        n_pairs = _old_comparator_retrain(
            model._by_query, ref, np.random.default_rng(seed % 3 + 5), epochs=40, lr=1e-3
        )
        model.retrain()
        if n_pairs < 15:
            assert not model._trained
            return
        every = [t for entries in model._by_query.values() for t, _ in entries]
        assert_same_bits(ref, model.net, every)

    def test_nan_input_trains_and_unpools_in_range(self):
        trees = forest(12, 20, "mixed")
        trees[3][0][0, 2] = np.nan
        trees[7][0][:] = np.nan
        net = TreeConvNet(5, conv_channels=(8, 8), head_hidden=(4,), seed=1)
        net.fit(trees, np.arange(20.0), epochs=2, batch_size=6)
        batch = PlanTreeBatch.from_trees(trees)
        net.embed(batch)
        n_nodes = len(batch.idx3)
        assert ((net._argmax >= 1) & (net._argmax <= n_nodes)).all()
        for k, (start, stop) in enumerate(batch.tree_slices):
            assert ((net._argmax[k] >= start) & (net._argmax[k] < stop)).all()


def reference_batch(trees):
    """A batch's arrays from the loop reference: ``(layer1, idx3,
    tree_slices, pad, parent_slot)``, each built tree by tree."""
    ref = ReferencePlanTreeBatch.from_trees(trees)
    f, n = ref.features, len(ref.left)
    layer1 = np.concatenate([f[1:], f[ref.left], f[ref.right]], axis=1).astype(DTYPE)
    idx3 = np.stack([np.arange(1, n + 1), ref.left, ref.right], axis=1)
    width = max(stop - start for start, stop in ref.tree_slices)
    pad = np.zeros((len(ref.tree_slices), width), dtype=int)
    for t, (start, stop) in enumerate(ref.tree_slices):
        pad[t, : stop - start] = np.arange(start, stop)
    parent_slot = np.full(n, 3 * n)
    for i in range(n):
        for side, child in ((1, ref.left[i]), (2, ref.right[i])):
            if child:
                parent_slot[child - 1] = 3 * i + side
    return layer1, idx3, np.array(ref.tree_slices), pad, parent_slot


def one_batch(corpus, idx):
    """The one training batch holding trees ``idx`` in that order: a
    one-epoch plan of ``len(idx)`` trees a batch."""
    _, batches = next(corpus.plan([idx], len(idx)))
    return next(batches)


def assert_batch_is(batch, trees):
    want = reference_batch(trees)
    got = (batch.layer1, batch.idx3, batch.tree_slices, batch.pad, batch.parent_slot)
    assert batch.layer1.dtype == DTYPE
    for g, w in zip(got, want):
        assert g.shape == w.shape and (g == w).all()


def assert_plan_is_the_loop(corpus, tree_of, orders, batch_size):
    """Every batch of ``corpus.plan`` against the loop reference re-stacking
    ``tree_of[i]`` (corpus tree ``i``) batch by batch."""
    epochs = corpus.plan(orders, batch_size)
    for want, (order, batches) in zip(orders, epochs):
        assert order is want
        batches = list(batches)
        assert len(batches) == len(range(0, len(order), batch_size))
        for k, batch in enumerate(batches):
            chunk = order[k * batch_size : (k + 1) * batch_size]
            assert_batch_is(batch, [tree_of[i] for i in chunk])
    assert next(epochs, None) is None


def plan_blocks(corpus, orders, batch_size):
    """``[(rows, batches)]`` of each index block the plan built."""
    blocks = []
    for _, batches in corpus.plan(orders, batch_size):
        for batch in batches:
            if not blocks or batch.idx3.base is not blocks[-1][0]:
                blocks.append((batch.idx3.base, []))
            blocks[-1][1].append(len(batch.idx3))
    return [(sum(rows), len(rows)) for _, rows in blocks]


class TestPlan:
    """``PlanTreeCorpus.plan`` against the loop reference, with ``==``."""

    @pytest.mark.parametrize(
        "trees, batch_size",
        [
            (ragged_forest(1, 23), 5),  # a ragged last batch
            (ragged_forest(2, 7), 7),  # batch_size == n
            (ragged_forest(3, 7), 50),  # batch_size > n
            (ragged_forest(4, 1), 32),  # n == 1
            (forest(5, 20, "single"), 6),  # single-node trees
            (forest(6, 30, "mixed"), 8),
        ],
        ids=["ragged-last", "batch-is-n", "batch-over-n", "one-tree", "single-nodes", "mixed"],
    )
    def test_batches_equal_the_loop(self, trees, batch_size):
        orders = list(shuffles(np.random.default_rng(7), len(trees), 4))
        assert_plan_is_the_loop(PlanTreeCorpus.from_trees(trees), trees, orders, batch_size)

    def test_all_duplicates_resample(self):
        trees = ragged_forest(8, 10)
        idx = np.full(9, 4)
        corpus = PlanTreeCorpus.from_trees(trees).resample(idx)
        orders = list(shuffles(np.random.default_rng(8), len(idx), 3))
        assert_plan_is_the_loop(corpus, [trees[i] for i in idx], orders, 4)

    def test_resample_with_duplicates(self):
        trees = ragged_forest(9, 30)
        idx = np.random.default_rng(9).integers(0, 30, size=30)
        corpus = PlanTreeCorpus.from_trees(trees).resample(idx)
        orders = list(shuffles(np.random.default_rng(10), len(idx), 3))
        assert_plan_is_the_loop(corpus, [trees[i] for i in idx], orders, 7)

    @pytest.mark.parametrize("batch_size", [32, 250])  # 250: one batch > PLAN_ROWS
    def test_epochs_across_plan_blocks(self, batch_size):
        trees = ragged_forest(11, 250)
        corpus = PlanTreeCorpus.from_trees(trees)
        epoch_rows = int(corpus.sizes.sum())
        assert epoch_rows > PLAN_ROWS
        orders = list(shuffles(np.random.default_rng(11), len(trees), 3))
        assert_plan_is_the_loop(corpus, trees, orders, batch_size)
        blocks = plan_blocks(corpus, orders, batch_size)
        assert len(blocks) >= 3  # a block per epoch at most
        assert all(rows <= PLAN_ROWS or n == 1 for rows, n in blocks)

    def test_plan_size_does_not_grow_with_epochs(self):
        corpus = PlanTreeCorpus.from_trees(ragged_forest(12, 40))
        orders = list(shuffles(np.random.default_rng(12), 40, 60))
        blocks = plan_blocks(corpus, orders, 32)
        assert 60 * int(corpus.sizes.sum()) > 2 * PLAN_ROWS
        assert len(blocks) > 2 and max(rows for rows, _ in blocks) <= PLAN_ROWS

    def test_fit_across_plan_blocks(self):
        trees = ragged_forest(13, 200)
        y = np.random.default_rng(13).normal(size=200)
        assert 3 * sum(len(f) for f, _, _ in trees) > 2 * PLAN_ROWS
        ref, new = nets(6)
        kw = dict(epochs=3, batch_size=32, seed=2)
        assert ref.fit(trees, y, **kw) == new.fit(trees, y, **kw)
        assert_same_bits(ref, new, trees)

    def test_shuffles_are_the_per_epoch_stream(self):
        want = np.random.default_rng(14)
        got = list(shuffles(np.random.default_rng(14), 9, 5))
        assert len(got) == 5
        for row in got:
            assert (row == want.permutation(9)).all()
        assert list(shuffles(np.random.default_rng(14), 9, 0)) == []
        # Drawn only when read: no epoch is drawn before its turn.
        rng, want = np.random.default_rng(14), np.random.default_rng(14)
        epochs = shuffles(rng, 9, 5)
        assert rng.bit_generator.state == want.bit_generator.state
        next(epochs)
        want.permutation(9)
        assert rng.bit_generator.state == want.bit_generator.state

    @pytest.mark.parametrize("n_trees", [40, 3000])  # 3000: one epoch > PLAN_ROWS
    def test_orders_are_drawn_as_blocks_need_them(self, n_trees):
        trees = forest(15, n_trees, "single")
        corpus = PlanTreeCorpus.from_trees(trees)
        drawn = []

        def orders():
            for order in shuffles(np.random.default_rng(15), n_trees, 60):
                drawn.append(order)
                yield order

        ahead = 0
        for e, (order, batches) in enumerate(corpus.plan(orders(), 32)):
            assert order is drawn[e]
            for _ in batches:
                ahead = max(ahead, len(drawn) - e)
        assert len(drawn) == 60
        # Never more than PLAN_ROWS trees plus one epoch ahead of the reader.
        assert (ahead - 1) * n_trees <= PLAN_ROWS + n_trees

    def test_a_partly_read_epoch_raises(self):
        trees = ragged_forest(16, 20)
        corpus = PlanTreeCorpus.from_trees(trees)
        epochs = corpus.plan(list(shuffles(np.random.default_rng(16), 20, 3)), 8)
        _, batches = next(epochs)
        next(batches)  # one of three batches
        with pytest.raises(RuntimeError, match="not read to its end"):
            next(epochs)
        epochs = corpus.plan(list(shuffles(np.random.default_rng(16), 20, 3)), 8)
        next(epochs)  # not read at all
        with pytest.raises(RuntimeError, match="not read to its end"):
            next(epochs)
        for _, batches in corpus.plan([np.arange(20)] * 3, 8):
            assert len(list(batches)) == 3  # read to the end: no error


class TestCorpus:
    @given(
        st.integers(0, 10_000),
        st.lists(st.integers(0, 11), min_size=1, max_size=30),
    )
    @settings(max_examples=40, deadline=None)
    def test_take_equals_restacking(self, seed, idx):
        trees = ragged_forest(seed, 12, dim=3)
        got = one_batch(PlanTreeCorpus.from_trees(trees), np.array(idx))
        assert_batch_is(got, [trees[i] for i in idx])
        restacked = PlanTreeBatch.from_trees([trees[i] for i in idx])
        assert np.array_equal(got.layer1, restacked.layer1)
        assert np.array_equal(got.idx3, restacked.idx3)
        assert np.array_equal(got.pad, restacked.pad)
        assert np.array_equal(got.tree_slices, restacked.tree_slices)
        assert restacked.parent_slot is None

    def test_batches_are_consecutive_takes(self):
        trees = ragged_forest(9, 23)
        corpus = PlanTreeCorpus.from_trees(trees)
        order = np.random.default_rng(9).permutation(23)
        _, batches = next(corpus.plan([order], 5))
        batches = list(batches)
        assert [b.n_trees for b in batches] == [5, 5, 5, 5, 3]
        for k, batch in enumerate(batches):
            want = one_batch(corpus, order[5 * k : 5 * k + 5])
            assert np.array_equal(batch.layer1, want.layer1)
            assert np.array_equal(batch.idx3, want.idx3)
            assert np.array_equal(batch.pad, want.pad)
            assert np.array_equal(batch.parent_slot, want.parent_slot)
            assert np.array_equal(batch.tree_slices, want.tree_slices)

    @staticmethod
    def _forest_with(bad_tree):
        good = (np.ones((3, 2)), np.array([1, -1, -1]), np.array([2, -1, -1]))
        return [good, good, bad_tree, good]

    @pytest.mark.parametrize(
        "left, right",
        [
            ([3, -1, -1], [2, -1, -1]),  # >= n: would index the next tree
            ([1, -1, -1], [-2, -1, -1]),  # < -1: would wrap
        ],
    )
    def test_rejects_child_index_out_of_range(self, left, right):
        bad = (np.ones((3, 2)), np.array(left), np.array(right))
        with pytest.raises(ValueError, match=r"tree 2: child index"):
            PlanTreeBatch.from_trees(self._forest_with(bad))

    @pytest.mark.parametrize(
        "left, right",
        [
            ([1, -1, -1], [1, -1, -1]),  # both children of one node
            ([1, 2, -1], [2, -1, -1]),  # children of two different nodes
        ],
    )
    def test_rejects_a_node_with_two_parents(self, left, right):
        bad = (np.ones((3, 2)), np.array(left), np.array(right))
        with pytest.raises(ValueError, match=r"tree 2: .*more than one"):
            PlanTreeCorpus.from_trees(self._forest_with(bad))

    def test_plan_rejects_an_empty_epoch(self):
        corpus = PlanTreeCorpus.from_trees(ragged_forest(0, 3))
        with pytest.raises(ValueError, match="empty epoch"):
            next(corpus.plan([np.array([], dtype=int)], 1))


# -- the hand-rolled minibatch loops that were folded onto the corpus -----------


def _old_comparator_retrain(by_query, net, rng, *, epochs, lr):
    """``PairwisePlanComparator.retrain`` as it stood: pairs materialised as
    tuples, re-stacked per batch, eight-array Adam."""
    pairs = []
    for entries in by_query.values():
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                (ta, la), (tb, lb) = entries[i], entries[j]
                if abs(la - lb) / max(la, lb, 1e-9) < 0.05:
                    continue
                pairs.append((ta, tb, 1.0 if la < lb else 0.0))
    opt = ReferenceAdam(lr=lr)
    for _ in range(epochs):
        order = rng.permutation(len(pairs))
        for start in range(0, len(pairs), 16):
            chunk = [pairs[k] for k in order[start : start + 16]]
            trees = [t for ta, tb, _ in chunk for t in (ta, tb)]
            batch = ReferencePlanTreeBatch.from_trees(trees)
            scores = net.forward(batch)[:, 0]
            diff = scores[1::2] - scores[0::2]
            prob = 1.0 / (1.0 + np.exp(-np.clip(diff, -60, 60)))
            labels = np.array([y for _, _, y in chunk], net.dtype)
            d_diff = (prob - labels) / max(len(chunk), 1)
            grad = np.zeros((len(trees), 1), net.dtype)
            grad[1::2, 0] = d_diff
            grad[0::2, 0] = -d_diff
            net._backward(batch, grad)
            opt.step(net.parameters(), net.gradients())
    return len(pairs)


def _old_multitask_loops(net, rng, trees, y, tune_trees, tune_y, *, epochs):
    """``UnifiedTransferableModel.pretrain`` (40 epochs) then
    ``.fine_tune("latency")`` (``epochs``)."""
    opt = ReferenceAdam(lr=1e-3)
    losses = []
    for _ in range(40):
        order = rng.permutation(len(trees))
        total, batches = 0.0, 0
        for start in range(0, len(trees), 32):
            idx = order[start : start + 32]
            batch = ReferencePlanTreeBatch.from_trees([trees[i] for i in idx])
            diff = net.forward(batch) - y[idx]
            net._backward(batch, 2.0 * diff / max(diff.size, 1))
            opt.step(net.parameters(), net.gradients())
            total += float((diff**2).mean())
            batches += 1
        losses.append(total / max(batches, 1))
    head_params = [p for layer in net.head for p in layer.parameters()]
    opt = ReferenceAdam(lr=2e-3)
    for _ in range(epochs):
        order = rng.permutation(len(tune_trees))
        for start in range(0, len(tune_trees), 32):
            idx = order[start : start + 32]
            batch = ReferencePlanTreeBatch.from_trees([tune_trees[i] for i in idx])
            pred = net.forward(batch)
            grad = np.zeros_like(pred)
            grad[:, 0] = 2.0 * (pred[:, 0] - tune_y[idx]) / max(idx.size, 1)
            net._backward(batch, grad)
            opt.step(head_params, [g for layer in net.head for g in layer.gradients()])
    return losses


class TestFoldedLoops:
    def test_comparator_retrain_and_pair_count(self, imdb_db, imdb_optimizer):
        featurizer = PlanFeaturizer(imdb_db, imdb_optimizer.estimator)
        rng = np.random.default_rng(10)
        model = PairwisePlanComparator(featurizer, seed=2)
        for q in range(14):  # 1..4 plans a query, some latencies within 5%
            for _ in range(int(rng.integers(1, 5))):
                tree = random_binary_tree(rng, featurizer.node_dim, int(rng.integers(1, 5)))
                model.record(f"q{q}", tree, float(rng.choice([10.0, 10.2, 30.0, 80.0])))
        ref = ReferenceTreeConvNet(
            featurizer.node_dim, conv_channels=(32, 32), head_hidden=(16,), seed=2
        ).astype(DTYPE)
        n_pairs = _old_comparator_retrain(
            model._by_query, ref, np.random.default_rng(2 + 5), epochs=40, lr=1e-3
        )
        assert model.n_pairs == n_pairs >= 15
        model.retrain()
        assert model._trained
        for p, q in zip(ref.parameters(), model.net.parameters()):
            assert np.array_equal(p, q)

    def test_multitask_pretrain_and_fine_tune(self, imdb_db, imdb_optimizer):
        featurizer = PlanFeaturizer(imdb_db, imdb_optimizer.estimator)
        queries = WorkloadGenerator(imdb_db, seed=11).workload(45, 2, 4)
        plans = [imdb_optimizer.plan(q) for q in queries]
        rng = np.random.default_rng(11)
        lats, cards = rng.uniform(1, 500, size=45), rng.uniform(1, 1e5, size=45)
        model = UnifiedTransferableModel(featurizer, seed=4)
        losses = model.pretrain(plans, lats, cards)
        model.fine_tune("latency", plans[:40], lats[:40] * 3.0, epochs=3)

        trees = [plan_to_tree_arrays(p, featurizer) for p in plans]
        ref = ReferenceTreeConvNet(
            featurizer.node_dim, (48, 48), (24,), out_dim=2, seed=4
        ).astype(DTYPE)
        want = _old_multitask_loops(
            ref,
            np.random.default_rng(4),
            trees,
            np.column_stack([np.log1p(lats), np.log1p(cards)]).astype(DTYPE),
            trees[:40],
            np.log1p(lats[:40] * 3.0).astype(DTYPE),
            epochs=3,
        )
        assert losses == want
        for p, q in zip(ref.parameters(), model.net.parameters()):
            assert np.array_equal(p, q)


class TestDtype:
    """A retrain and a read of Bao's and Lero's models, built by their
    product constructors, compute in ``DTYPE`` end to end: no buffer, batch,
    optimizer state or output upcasts."""

    @pytest.fixture
    def seen(self, monkeypatch):
        """``{what: dtypes}`` of every array the spies below see."""
        seen = collections.defaultdict(set)

        def spy(cls, name, record):
            inner = getattr(cls, name)

            def wrapped(self, *args):
                out = inner(self, *args)
                for what, arrays in record(self, args, out):
                    seen[what].update(a.dtype for a in arrays)
                return out

            monkeypatch.setattr(cls, name, wrapped)

        spy(Adam, "step", lambda opt, args, _: [
            ("flat params and grads", [*args[0], *args[1]]),
            ("adam moments", [*opt._m, *opt._v]),
            ("adam scratch", list(itertools.chain(*opt._scratch))),
        ])
        spy(PlanTreeCorpus, "_layer1", lambda corpus, _, out: [
            ("corpus features", [corpus.features]),
            ("layer-1 table", [out[0]]),
        ])
        spy(TreeConvNet, "forward", lambda _, args, out: [
            ("batch layer1", [args[0].layer1]),
            ("forward output", [out]),
        ])
        spy(_TreeConvLayer, "backward", lambda _, args, out: [
            ("backward buffers", [args[0]] + ([] if out is None else [out])),
        ])
        spy(TreeConvNet, "predict", lambda _, args, out: [("predict output", [out])])
        return seen

    @staticmethod
    def _feed(model, queries, rng):
        """Three candidates of each query executed at spread latencies."""
        for q in queries:
            for cand in model.exploration.candidates(q)[:3]:
                model.record_feedback(q, cand, float(rng.choice([10.0, 30.0, 80.0, 200.0])))

    def test_bao_and_lero_retrain_and_read_in_dtype(self, imdb_optimizer, seen):
        queries = WorkloadGenerator(imdb_optimizer.db, seed=21).workload(12, 2, 4)
        bao = BaoOptimizer(imdb_optimizer, seed=0)
        lero = LeroOptimizer(imdb_optimizer, seed=0)
        for model in (bao, lero):
            self._feed(model, queries, np.random.default_rng(21))
            model.retrain()
            model.choose_plan(queries[0])
        assert lero.risk_model.trained
        nets = [*bao.risk_model.members(), lero.risk_model.net]
        for net in nets:
            assert net.flat_params.dtype == net.flat_grads.dtype == DTYPE
        assert set(seen) == {
            "flat params and grads", "adam moments", "adam scratch", "corpus features",
            "layer-1 table", "batch layer1", "forward output", "backward buffers",
            "predict output",
        }
        want = {np.dtype(DTYPE)}
        assert {what: dtypes for what, dtypes in seen.items() if dtypes != want} == {}
