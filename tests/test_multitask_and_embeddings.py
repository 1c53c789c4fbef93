"""Tests for the MLMTF unified model and the Saturn plan autoencoder."""

import numpy as np
import pytest
from scipy.stats import spearmanr

from repro.costmodel import PlanAutoencoder, PlanFeaturizer, UnifiedTransferableModel
from repro.costmodel.features import plan_to_tree_arrays
from repro.engine import CardinalityExecutor
from repro.ml.treeconv import PlanTreeBatch
from repro.optimizer import HintSet
from repro.sql import WorkloadGenerator


@pytest.fixture(scope="module")
def featurizer(imdb_db, imdb_optimizer):
    return PlanFeaturizer(imdb_db, imdb_optimizer.estimator)


@pytest.fixture(scope="module")
def corpus(imdb_db, imdb_optimizer, imdb_simulator):
    """Plans + latencies + true cardinalities for multi-task training."""
    executor = CardinalityExecutor(imdb_db)
    gen = WorkloadGenerator(imdb_db, seed=140)
    plans, lats, cards = [], [], []
    for q in gen.workload(50, 2, 4, require_predicate=True):
        for arm in HintSet.bao_arms()[:3]:
            p = imdb_optimizer.plan(q, hints=arm)
            plans.append(p)
            lats.append(imdb_simulator.execute(p).latency_ms)
            cards.append(executor.cardinality(q))
    return plans, np.array(lats), np.array(cards)


class TestUnifiedTransferableModel:
    def test_pretrain_learns_both_tasks(self, featurizer, corpus):
        plans, lats, cards = corpus
        n = int(len(plans) * 0.75)
        model = UnifiedTransferableModel(featurizer, seed=0)
        losses = model.pretrain(plans[:n], lats[:n], cards[:n])
        assert losses[-1] < losses[0]
        lat_preds = [model.predict_latency(p) for p in plans[n:]]
        card_preds = [model._predict(p)[1] for p in plans[n:]]  # the log-cardinality head
        assert spearmanr(lat_preds, lats[n:]).statistic > 0.5
        assert spearmanr(card_preds, cards[n:]).statistic > 0.5

    def test_fine_tune_head_only_moves_task(self, featurizer, corpus):
        plans, lats, cards = corpus
        model = UnifiedTransferableModel(featurizer, seed=0)
        model.pretrain(plans[:60], lats[:60], cards[:60])
        trunk_before = [w.copy() for layer in model.net.conv_layers for w in layer.parameters()]
        # Fine-tune latency on a shifted target (e.g. a 3x slower machine).
        model.fine_tune("latency", plans[60:100], lats[60:100] * 3.0, epochs=20)
        trunk_after = [w for layer in model.net.conv_layers for w in layer.parameters()]
        for before, after in zip(trunk_before, trunk_after):
            assert np.array_equal(before, after), "trunk must stay frozen"

    def test_unknown_task(self, featurizer, corpus):
        plans, lats, cards = corpus
        model = UnifiedTransferableModel(featurizer, seed=0)
        model.pretrain(plans[:20], lats[:20], cards[:20])
        with pytest.raises(ValueError):
            model.fine_tune("quantum", plans[:5], lats[:5])

    def test_predict_before_train(self, featurizer):
        model = UnifiedTransferableModel(featurizer)
        with pytest.raises(RuntimeError):
            model.predict_latency(None)

    def test_embedding_shape(self, featurizer, corpus):
        plans, lats, cards = corpus
        model = UnifiedTransferableModel(featurizer, seed=0)
        model.pretrain(plans[:20], lats[:20], cards[:20])
        batch = PlanTreeBatch.from_trees([plan_to_tree_arrays(plans[0], featurizer)])
        assert model.net.embed(batch).shape == (1, 48)  # the last conv channel count


class TestPlanAutoencoder:
    def test_training_reduces_reconstruction_error(self, featurizer, corpus):
        plans, _, _ = corpus
        ae = PlanAutoencoder(featurizer, seed=0)
        losses = ae.fit(plans, epochs=40)
        assert losses[-1] < losses[0] * 0.8

    def test_embeddings_cluster_by_join_count(self, featurizer, corpus, imdb_db,
                                              imdb_optimizer):
        # Saturn's claim: compressed vectors distinguish query types.
        gen = WorkloadGenerator(imdb_db, seed=141)
        small = [imdb_optimizer.plan(q) for q in gen.workload(15, 2, 2)]
        big = [imdb_optimizer.plan(q) for q in gen.workload(15, 4, 5)]
        ae = PlanAutoencoder(featurizer, seed=0)
        ae.fit(small + big, epochs=60)
        emb_small = np.stack([ae.embed(p) for p in small])
        emb_big = np.stack([ae.embed(p) for p in big])
        centroid_gap = np.linalg.norm(emb_small.mean(0) - emb_big.mean(0))
        within = 0.5 * (
            np.linalg.norm(emb_small - emb_small.mean(0), axis=1).mean()
            + np.linalg.norm(emb_big - emb_big.mean(0), axis=1).mean()
        )
        assert centroid_gap > within * 0.5

    def test_reconstruction_error_flags_unseen_shapes(
        self, featurizer, imdb_db, imdb_optimizer
    ):
        gen = WorkloadGenerator(imdb_db, seed=142)
        single = [imdb_optimizer.plan(q) for q in gen.workload(20, 1, 1)]
        ae = PlanAutoencoder(featurizer, seed=0)
        ae.fit(single, epochs=60)
        seen_err = np.mean([ae.reconstruction_error(p) for p in single])
        unseen = [imdb_optimizer.plan(q) for q in gen.workload(10, 4, 5)]
        unseen_err = np.mean([ae.reconstruction_error(p) for p in unseen])
        assert unseen_err > seen_err

    def test_embed_before_fit(self, featurizer):
        with pytest.raises(RuntimeError):
            PlanAutoencoder(featurizer).embed(None)

    def test_fit_rejects_empty(self, featurizer):
        with pytest.raises(ValueError):
            PlanAutoencoder(featurizer).fit([])
