"""Tests for the pooled MSCN [22], CRN [13] and Astrid-lite [48]."""

import numpy as np
import pytest

from repro.cardest import CRNEstimator, MSCNEstimator, PooledMSCNEstimator, q_error
from repro.cardest.strings import (
    AstridEstimator,
    StringColumn,
    StringMatchKind,
    StringPredicate,
    generate_names,
)
from repro.sql import Query, WorkloadGenerator


class TestPooledMSCN:
    def test_max_pooling_wired(self, stats_db):
        est = PooledMSCNEstimator(stats_db, epochs=5)
        assert est.net.modules["tables"].pooling == "max"

    def test_fit_and_estimate(self, stats_db, stats_train_data):
        est = PooledMSCNEstimator(stats_db, epochs=25)
        est.fit(*stats_train_data)
        queries, cards = stats_train_data
        errs = [q_error(est.estimate(q), c) for q, c in zip(queries[:30], cards[:30])]
        assert np.median(errs) < 20.0

    def test_differs_from_avg_pooling(self, stats_db, stats_train_data):
        queries, cards = stats_train_data
        avg = MSCNEstimator(stats_db, epochs=10).fit(queries, cards)
        mx = PooledMSCNEstimator(stats_db, epochs=10).fit(queries, cards)
        preds_avg = [avg.estimate(q) for q in queries[:15]]
        preds_max = [mx.estimate(q) for q in queries[:15]]
        assert preds_avg != preds_max

    def test_max_pool_gradient(self):
        # Numerical gradient check of the max-pooling path.
        from repro.ml.setconv import SetConvNet

        rng = np.random.default_rng(3)
        samples = [{"a": rng.normal(size=(3, 3))}, {"a": rng.normal(size=(2, 3))}]
        target = np.array([[0.4], [0.6]])
        net = SetConvNet({"a": 3}, pooling="max", seed=1)
        batch = {"a": [s["a"] for s in samples]}

        def loss():
            return float(((net.forward(batch) - target) ** 2).sum())

        pred = net.forward(batch)
        net._backward(2.0 * (pred - target))
        analytic = net.gradients()
        for p, a in zip(net.parameters(), analytic):
            grad = np.zeros_like(p)
            flat, g = p.reshape(-1), grad.reshape(-1)
            for i in range(flat.size):
                old = flat[i]
                flat[i] = old + 1e-5
                hi = loss()
                flat[i] = old - 1e-5
                lo = loss()
                flat[i] = old
                g[i] = (hi - lo) / 2e-5
            assert np.allclose(a, grad, atol=1e-3)

    def test_empty_set_max_pool(self, stats_db):
        from repro.ml.setconv import SetConvNet

        net = SetConvNet({"a": 3}, pooling="max", seed=0)
        out = net.predict([{"a": np.zeros((0, 3))}])
        assert np.isfinite(out).all()

    def test_unknown_pooling_rejected(self):
        from repro.ml.setconv import SetConvNet

        with pytest.raises(ValueError):
            SetConvNet({"a": 3}, pooling="median")


class TestCRN:
    @pytest.fixture(scope="class")
    def trained_crn(self, stats_db, stats_executor):
        gen = WorkloadGenerator(stats_db, seed=150)
        # Template workloads give CRN dense same-template pairs.
        train = (
            gen.single_table_workload("posts", 60)
            + gen.single_table_workload("users", 60)
            + gen.join_template_workload(["posts", "users"], 60)
        )
        cards = np.array([stats_executor.cardinality(q) for q in train])
        return CRNEstimator(stats_db, epochs=60, seed=0).fit(train, cards)

    def test_known_template_accuracy(self, trained_crn, stats_db, stats_executor):
        gen = WorkloadGenerator(stats_db, seed=151)
        test = gen.single_table_workload("posts", 30)
        errs = [
            q_error(trained_crn.estimate(q), stats_executor.cardinality(q))
            for q in test
        ]
        assert np.median(errs) < 15.0

    def test_unseen_template_falls_back(self, trained_crn, stats_db):
        gen = WorkloadGenerator(stats_db, seed=152)
        q = gen.join_template_workload(["badges", "users"], 1)[0]
        est = trained_crn.estimate(q)
        assert est >= 0.0

    def test_estimate_before_fit(self, stats_db):
        with pytest.raises(RuntimeError):
            CRNEstimator(stats_db).estimate(Query(("users",)))

    def test_conjoin_intersects(self, stats_db, stats_executor):
        gen = WorkloadGenerator(stats_db, seed=153)
        qs = gen.single_table_workload("posts", 2)
        both = CRNEstimator._conjoin(qs[0], qs[1])
        card = stats_executor.cardinality(both)
        assert card <= min(
            stats_executor.cardinality(qs[0]), stats_executor.cardinality(qs[1])
        )


class TestStringSubstrate:
    def test_generate_names(self):
        names = generate_names(100, seed=0)
        assert len(names) == 100
        assert all(names)
        assert len(set(names)) > 10

    def test_predicate_semantics(self):
        assert StringPredicate(StringMatchKind.PREFIX, "ab").matches("abc")
        assert not StringPredicate(StringMatchKind.PREFIX, "bc").matches("abc")
        assert StringPredicate(StringMatchKind.SUFFIX, "bc").matches("abc")
        assert StringPredicate(StringMatchKind.SUBSTRING, "b").matches("abc")
        assert StringPredicate(StringMatchKind.EXACT, "abc").matches("abc")
        assert not StringPredicate(StringMatchKind.EXACT, "ab").matches("abc")

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            StringPredicate(StringMatchKind.PREFIX, "")

    def test_column_count(self):
        col = StringColumn("name", ["anna", "annette", "bob"])
        assert col.count(StringPredicate(StringMatchKind.PREFIX, "ann")) == 2
        assert col.count(StringPredicate(StringMatchKind.SUBSTRING, "nn")) == 2
        assert col.count(StringPredicate(StringMatchKind.EXACT, "bob")) == 1

    def test_sampled_patterns_nonvacuous(self):
        col = StringColumn("name", generate_names(300, seed=1))
        rng = np.random.default_rng(0)
        for pred in col.sample_patterns(30, rng):
            assert col.count(pred) >= 1


class TestAstrid:
    @pytest.fixture(scope="class")
    def setup(self):
        col = StringColumn("name", generate_names(2000, seed=2))
        est = AstridEstimator(col, epochs=80, seed=0).fit(n_train=400)
        return col, est

    def test_beats_uniform_guess(self, setup):
        col, est = setup
        rng = np.random.default_rng(9)
        test = col.sample_patterns(60, rng)
        learned = np.median([q_error(est.estimate(p), col.count(p)) for p in test])
        # Uniform guesser: always predict mean match count of training.
        mean_count = np.mean([col.count(p) for p in test])
        uniform = np.median(
            [
                max(mean_count, 1) / max(col.count(p), 1)
                if mean_count > col.count(p)
                else max(col.count(p), 1) / max(mean_count, 1)
                for p in test
            ]
        )
        assert learned < uniform
        assert learned < 5.0

    def test_estimates_bounded(self, setup):
        col, est = setup
        pred = StringPredicate(StringMatchKind.SUBSTRING, "an")
        assert 0.0 <= est.estimate(pred) <= col.n_rows

    def test_estimate_before_fit(self):
        col = StringColumn("name", generate_names(50, seed=3))
        with pytest.raises(RuntimeError):
            AstridEstimator(col).estimate(
                StringPredicate(StringMatchKind.PREFIX, "an")
            )
