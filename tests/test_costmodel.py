"""Tests for plan featurization and the learned cost models."""

import numpy as np
import pytest
from scipy.stats import spearmanr

from repro.core.errors import ConfigError
from repro.core.interfaces import CardinalityEstimator
from repro.costmodel import (
    ConcurrentCostModel,
    ConcurrentWorkload,
    LinearPlanCostModel,
    PlanFeaturizer,
    TreeConvCostModel,
    TreeRecurrentCostModel,
    ZeroShotCostModel,
    plan_to_tree_arrays,
    prefix_to_tree_arrays,
)
from repro.joinorder.env import JoinOrderEnv
from repro.ml.treeconv import PlanTreeBatch
from repro.optimizer import Optimizer
from repro.sql import WorkloadGenerator


@pytest.fixture(scope="module")
def featurizer(imdb_db, imdb_optimizer):
    return PlanFeaturizer(imdb_db, imdb_optimizer.estimator)


@pytest.fixture(scope="module")
def split_corpus(imdb_plan_corpus):
    plans, lats = imdb_plan_corpus
    n = int(len(plans) * 0.75)
    return plans[:n], lats[:n], plans[n:], lats[n:]


class TestPlanFeaturizer:
    def test_node_features_shape(self, featurizer, imdb_plan_corpus):
        plans, _ = imdb_plan_corpus
        plan = plans[0]
        for node in plan.walk():
            vec = featurizer.node_features(plan, node)
            assert vec.shape == (featurizer.node_dim,)

    def test_tree_arrays_batchable(self, featurizer, imdb_plan_corpus):
        plans, _ = imdb_plan_corpus
        trees = [plan_to_tree_arrays(p, featurizer) for p in plans[:5]]
        batch = PlanTreeBatch.from_trees(trees)
        assert batch.n_trees == 5

    def test_tree_arrays_preorder_root_first(self, featurizer, imdb_plan_corpus):
        plans, _ = imdb_plan_corpus
        plan = next(p for p in plans if len(p.join_nodes()) >= 1)
        feats, left, right = plan_to_tree_arrays(plan, featurizer)
        assert feats.shape[0] == plan.root.n_nodes
        assert left[0] >= 0 and right[0] >= 0  # root is a join

    def test_flat_features(self, featurizer, imdb_plan_corpus):
        plans, _ = imdb_plan_corpus
        vec = featurizer.flat(plans[0])
        assert vec.ndim == 1
        assert featurizer.flat_batch(plans[:4]).shape == (4, vec.shape[0])

    def test_transferable_has_no_table_identity(self, featurizer, imdb_plan_corpus):
        plans, _ = imdb_plan_corpus
        plan = plans[0]
        shapes = {featurizer.transferable_node(plan, n).shape for n in plan.walk()}
        assert len(shapes) == 1
        # Dim must not depend on the number of tables.
        (dim,) = shapes.pop()
        assert dim < featurizer.node_dim

    @pytest.mark.parametrize("bad", [float("nan"), -1.0, float("inf")])
    def test_pathological_estimates_never_reach_the_features(
        self, imdb_db, imdb_plan_corpus, bad
    ):
        """``max(nan, 0.0)`` is nan: every node cardinality has to come
        through ``sanitize_estimate``, in all three featurizations and in
        the partial-plan encoder the value networks read."""

        class Broken(CardinalityEstimator):
            def estimate(self, query):
                return bad

        feat = PlanFeaturizer(imdb_db, Broken())
        plans, _ = imdb_plan_corpus
        plan = next(p for p in plans if p.join_nodes())
        assert np.isfinite(plan_to_tree_arrays(plan, feat)[0]).all()
        assert all(np.isfinite(feat.transferable_node(plan, n)).all() for n in plan.walk())
        assert np.isfinite(feat.flat(plan)).all()
        prefix = plan.join_order()[:2]
        assert np.isfinite(prefix_to_tree_arrays(plan.query, prefix, feat)[0]).all()

    def test_coster_form_reads_the_planners_cache(self, imdb_db, imdb_plan_corpus):
        optimizer = Optimizer(imdb_db)
        plans, _ = imdb_plan_corpus
        plan = optimizer.plan(plans[0].query)
        cached = PlanFeaturizer(imdb_db, coster=optimizer.coster)
        misses = optimizer.cache.misses
        feats = plan_to_tree_arrays(plan, cached)[0]
        env = JoinOrderEnv(plan.query)
        while not env.done:
            env.step(env.valid_actions()[0])
        prefix_to_tree_arrays(plan.query, env.prefix, cached)
        # the DP primed every connected subset: plan nodes and prefixes alike
        assert optimizer.cache.misses == misses
        bare = PlanFeaturizer(imdb_db, optimizer.estimator)
        assert np.array_equal(feats, plan_to_tree_arrays(plan, bare)[0])
        with pytest.raises(ValueError):
            PlanFeaturizer(imdb_db, optimizer.estimator, coster=optimizer.coster)


class TestPointwiseCostModels:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda f: LinearPlanCostModel(f),
            lambda f: TreeConvCostModel(f),
            lambda f: TreeRecurrentCostModel(f),
        ],
        ids=["linear", "treeconv", "recurrent"],
    )
    def test_rank_correlation_on_holdout(self, factory, featurizer, split_corpus):
        train_p, train_l, test_p, test_l = split_corpus
        model = factory(featurizer).fit(train_p, train_l)
        preds = np.array([model.predict_latency(p) for p in test_p])
        rho = spearmanr(preds, test_l).statistic
        assert rho > 0.5

    def test_predict_before_fit_raises(self, featurizer):
        with pytest.raises(RuntimeError):
            TreeConvCostModel(featurizer).predict_latency(None)

    def test_fit_rejects_empty(self, featurizer):
        with pytest.raises(ValueError):
            LinearPlanCostModel(featurizer).fit([], np.zeros(0))

    def test_predictions_nonnegative(self, featurizer, split_corpus):
        train_p, train_l, test_p, _ = split_corpus
        model = TreeConvCostModel(featurizer).fit(train_p, train_l)
        assert all(model.predict_latency(p) >= 0 for p in test_p)


class TestZeroShot:
    def test_transfers_to_unseen_database(
        self, imdb_db, imdb_optimizer, imdb_plan_corpus, stats_db, stats_optimizer, stats_simulator
    ):
        plans, lats = imdb_plan_corpus
        src_feat = PlanFeaturizer(imdb_db, imdb_optimizer.estimator)
        model = ZeroShotCostModel(epochs=30, seed=0)
        model.fit([(src_feat, list(plans), lats)])
        # Target: a database the model has never seen.
        tgt_feat = PlanFeaturizer(stats_db, stats_optimizer.estimator)
        gen = WorkloadGenerator(stats_db, seed=60)
        tgt_plans = [
            stats_optimizer.plan(q)
            for q in gen.workload(25, 2, 4, require_predicate=True)
        ]
        tgt_lats = np.array(
            [stats_simulator.execute(p).latency_ms for p in tgt_plans]
        )
        preds = np.array([model.predict_latency(p, tgt_feat) for p in tgt_plans])
        rho = spearmanr(preds, tgt_lats).statistic
        assert rho > 0.3  # zero-shot: weaker but meaningful transfer

    def test_requires_training_sets(self):
        with pytest.raises(ValueError):
            ZeroShotCostModel().fit([])

    def test_dim_mismatch_raises_config_error(
        self, imdb_db, imdb_optimizer, imdb_plan_corpus
    ):
        """A featurizer with the wrong transferable dimension must fail
        with a typed, self-diagnosing error -- not an opaque numpy shape
        error from inside the MLP (the old behavior)."""

        class _WideFeaturizer(PlanFeaturizer):
            def transferable_node(self, plan, node):
                row = super().transferable_node(plan, node)
                return np.concatenate([row, [0.0]])

        plans, lats = imdb_plan_corpus
        feat = PlanFeaturizer(imdb_db, imdb_optimizer.estimator)
        model = ZeroShotCostModel(epochs=5, seed=0)
        model.fit([(feat, list(plans[:10]), lats[:10])])
        wide = _WideFeaturizer(imdb_db, imdb_optimizer.estimator)
        with pytest.raises(ConfigError) as exc:
            model.predict_latency(plans[0], wide)
        msg = str(exc.value)
        assert "_WideFeaturizer" in msg
        # both dimensions are named so the mismatch is diagnosable
        assert str(feat.transferable_node(plans[0], next(plans[0].walk())).shape[0]) in msg

    def test_fit_rejects_mixed_dims(
        self, imdb_db, imdb_optimizer, imdb_plan_corpus
    ):
        class _WideFeaturizer(PlanFeaturizer):
            def transferable_node(self, plan, node):
                row = super().transferable_node(plan, node)
                return np.concatenate([row, [0.0]])

        plans, lats = imdb_plan_corpus
        feat = PlanFeaturizer(imdb_db, imdb_optimizer.estimator)
        wide = _WideFeaturizer(imdb_db, imdb_optimizer.estimator)
        with pytest.raises(ConfigError):
            ZeroShotCostModel(epochs=5, seed=0).fit(
                [
                    (feat, list(plans[:5]), lats[:5]),
                    (wide, list(plans[5:10]), lats[5:10]),
                ]
            )


class TestConcurrent:
    def test_interference_increases_latency(self, imdb_simulator, imdb_plan_corpus):
        plans, _ = imdb_plan_corpus
        cw = ConcurrentWorkload(imdb_simulator, alpha=0.6)
        mix = plans[:4]
        solo = np.array([imdb_simulator.execute(p).latency_ms for p in mix])
        together = cw.run(mix)
        assert np.all(together >= solo - 1e-9)
        assert together.sum() > solo.sum()

    def test_disjoint_tables_do_not_interfere(self, imdb_simulator, imdb_optimizer, imdb_db):
        gen = WorkloadGenerator(imdb_db, seed=61)
        # Two single-table queries on different tables share nothing.
        qa = gen.single_table_workload("person", 1)[0]
        qb = gen.single_table_workload("company", 1)[0]
        pa, pb = imdb_optimizer.plan(qa), imdb_optimizer.plan(qb)
        cw = ConcurrentWorkload(imdb_simulator, alpha=0.6)
        together = cw.run([pa, pb])
        solo = np.array([imdb_simulator.execute(pa).latency_ms, imdb_simulator.execute(pb).latency_ms])
        assert np.allclose(together, solo)

    def test_model_learns_interference(self, featurizer, imdb_simulator, imdb_plan_corpus):
        plans, _ = imdb_plan_corpus
        cw = ConcurrentWorkload(imdb_simulator)
        rng = np.random.default_rng(0)
        mixes = []
        for _ in range(40):
            idx = rng.choice(len(plans), size=4, replace=False)
            mixes.append([plans[i] for i in idx])
        lats = [cw.run(m) for m in mixes]
        model = ConcurrentCostModel(featurizer, epochs=40, seed=0)
        model.fit(mixes[:30], lats[:30])
        preds, truths = [], []
        for m, l in zip(mixes[30:], lats[30:]):
            preds.extend(model.predict_mix(m))
            truths.extend(l)
        rho = spearmanr(preds, truths).statistic
        assert rho > 0.5

    def test_empty_mix(self, imdb_simulator):
        cw = ConcurrentWorkload(imdb_simulator)
        assert cw.run([]).shape == (0,)

    def test_predict_before_fit(self, featurizer):
        with pytest.raises(RuntimeError):
            ConcurrentCostModel(featurizer).predict_mix([])
