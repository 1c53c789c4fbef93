"""Tests for drift detection/adaptation (DDUp, Warper), BASE calibration
and LOGER's epsilon-beam search."""

import numpy as np
import pytest

from repro.bench import apply_drift
from repro.cardest import DDUpDetector, GBDTQueryEstimator, Warper, q_error
from repro.core import RetrainCadence
from repro.costmodel import CalibratedCostModel
from repro.costmodel.calibrated import isotonic_fit
from repro.e2e import LogerOptimizer, OptimizationLoop
from repro.e2e.exploration import ValueSearchExploration
from repro.engine import CardinalityExecutor
from repro.optimizer import HintSet
from repro.sql import WorkloadGenerator
from repro.storage import make_stats_lite


class TestDDUpDetector:
    def test_no_drift_on_static_data(self, stats_db):
        detector = DDUpDetector(stats_db, seed=0)
        reports = detector.check()
        assert all(not r.drifted for r in reports)
        assert all(r.action == "none" for r in reports)

    def test_detects_heavy_drift(self):
        db = make_stats_lite(0.3, seed=4)
        detector = DDUpDetector(db, seed=0)
        apply_drift(db, fraction=0.6, seed=2)
        drifted = detector.drifted_tables()
        assert drifted, "60% shifted inserts must trip the detector"
        reports = {r.table: r for r in detector.check()}
        assert any(r.action in ("fine_tune", "retrain") for r in reports.values())

    def test_small_drift_prefers_fine_tune(self):
        db = make_stats_lite(0.3, seed=5)
        detector = DDUpDetector(db, seed=0)
        apply_drift(db, fraction=0.15, seed=3)
        actions = {r.action for r in detector.check() if r.drifted}
        assert actions <= {"fine_tune", "retrain"}
        # A 15% shift stays below the retrain divergence: nothing escalates.
        assert "retrain" not in actions

    def test_resnapshot_resets(self):
        db = make_stats_lite(0.3, seed=6)
        detector = DDUpDetector(db, seed=0)
        apply_drift(db, fraction=0.6, seed=4)
        assert detector.drifted_tables()
        detector.snapshot()
        assert not detector.drifted_tables()

    def test_unknown_table(self, stats_db):
        detector = DDUpDetector(stats_db)
        with pytest.raises(KeyError):
            detector.check_table("nope")


class TestWarper:
    def test_rejects_unsupervised_estimator(self, stats_db):
        with pytest.raises(TypeError):
            Warper(stats_db, object())

    def test_adapt_noop_without_drift(self):
        db = make_stats_lite(0.3, seed=7)
        executor = CardinalityExecutor(db)
        gen = WorkloadGenerator(db, seed=1)
        train_q = gen.workload(100, 1, 3, require_predicate=True)
        train_c = np.array([executor.cardinality(q) for q in train_q])
        warper = Warper(db, GBDTQueryEstimator(db), seed=0)
        warper.fit_initial(train_q, train_c)
        warper.adapt()
        assert warper.adaptations == 0

    def test_adapt_recovers_accuracy_after_drift(self):
        db = make_stats_lite(0.4, seed=8)
        executor = CardinalityExecutor(db)
        gen = WorkloadGenerator(db, seed=1)
        train_q = gen.workload(250, 1, 3, require_predicate=True)
        train_c = np.array([executor.cardinality(q) for q in train_q])
        est = GBDTQueryEstimator(db)
        warper = Warper(db, est, queries_per_table=40, seed=0)
        warper.fit_initial(train_q, train_c)

        apply_drift(db, fraction=0.5, seed=9)
        executor.clear_cache()
        test_q = WorkloadGenerator(db, seed=97).workload(
            60, 1, 3, require_predicate=True
        )
        test_c = [executor.cardinality(q) for q in test_q]
        stale = np.median([q_error(est.estimate(q), c) for q, c in zip(test_q, test_c)])
        warper.adapt()
        assert warper.adaptations == 1
        fresh = np.median([q_error(est.estimate(q), c) for q, c in zip(test_q, test_c)])
        assert fresh <= stale * 1.05, f"adaptation should help: {stale} -> {fresh}"


class TestIsotonic:
    def test_monotone_output(self):
        rng = np.random.default_rng(0)
        x = rng.random(50) * 10
        y = x * 2 + rng.normal(0, 1, 50)
        xs, fitted = isotonic_fit(x, y)
        assert np.all(np.diff(fitted) >= -1e-12)
        assert np.all(np.diff(xs) >= 0)

    def test_recovers_monotone_function(self):
        x = np.linspace(0, 10, 100)
        y = x**2
        xs, fitted = isotonic_fit(x, y)
        assert np.allclose(fitted, y, atol=1e-9)

    def test_constant_on_decreasing_input(self):
        x = np.arange(10.0)
        y = -x
        _, fitted = isotonic_fit(x, y)
        assert np.allclose(fitted, fitted[0])


class TestCalibratedCostModel:
    def _corpus(self, optimizer, simulator, db, n=40):
        gen = WorkloadGenerator(db, seed=130)
        plans, lats = [], []
        for q in gen.workload(n, 2, 4, require_predicate=True):
            for arm in HintSet.bao_arms()[:3]:
                p = optimizer.plan(q, hints=arm)
                plans.append(p)
                lats.append(simulator.execute(p).latency_ms)
        return plans, np.array(lats)

    def test_calibration_fixes_scale(self, imdb_db, imdb_optimizer, imdb_simulator):
        plans, lats = self._corpus(imdb_optimizer, imdb_simulator, imdb_db)
        n = int(len(plans) * 0.7)
        model = CalibratedCostModel(imdb_optimizer).fit(plans[:n], lats[:n])

        def median_rel_err(predict):
            preds = np.array([predict(p) for p in plans[n:]])
            return float(np.median(np.abs(preds - lats[n:]) / np.maximum(lats[n:], 1e-9)))

        err = median_rel_err(model.predict_latency)
        # Raw cost is off by ~10x in absolute terms; calibrated should be
        # within tens of percent.
        raw_err = median_rel_err(imdb_optimizer.cost)
        assert err < raw_err * 0.2
        assert err < 0.5

    def test_observe_then_fit(self, imdb_db, imdb_optimizer, imdb_simulator):
        plans, lats = self._corpus(imdb_optimizer, imdb_simulator, imdb_db, n=10)
        model = CalibratedCostModel(imdb_optimizer)
        for p, l in zip(plans, lats):
            model.observe(p, l)
        assert len(model._observed) == len(plans)
        model.fit()
        assert model.predict_latency(plans[0]) >= 0

    def test_fit_requires_data(self, imdb_optimizer):
        with pytest.raises(ValueError):
            CalibratedCostModel(imdb_optimizer).fit()

    def test_predict_before_fit(self, imdb_optimizer):
        with pytest.raises(RuntimeError):
            CalibratedCostModel(imdb_optimizer).predict_latency(None)


class TestLoger:
    def test_epsilon_validated(self, imdb_optimizer):
        with pytest.raises(ValueError):
            ValueSearchExploration(imdb_optimizer, None, epsilon=1.0)

    def test_untrained_ships_native(self, imdb_optimizer, imdb_db):
        loger = LogerOptimizer(imdb_optimizer, seed=0)
        q = WorkloadGenerator(imdb_db, seed=131).random_query(3, 4)
        assert loger.choose_plan(q).source == "default"

    def test_bootstrap_and_search(self, imdb_db, imdb_optimizer, imdb_simulator):
        gen = WorkloadGenerator(imdb_db, seed=132)
        workload = gen.workload(20, 2, 4, require_predicate=True)
        loger = LogerOptimizer(imdb_optimizer, seed=0)
        loger.bootstrap_from_expert(
            workload[:12], imdb_simulator.latency, RetrainCadence(loger, every=25)
        )
        cand = loger.choose_plan(workload[15])
        assert cand.source == "search"
        assert cand.plan.root.tables == frozenset(workload[15].tables)

    def test_runs_in_loop(self, imdb_db, imdb_optimizer, imdb_simulator):
        gen = WorkloadGenerator(imdb_db, seed=133)
        workload = gen.workload(40, 2, 4, require_predicate=True)
        loger = LogerOptimizer(imdb_optimizer, seed=0)
        loop = OptimizationLoop(
            loger, imdb_simulator, imdb_optimizer,
            policies=[RetrainCadence(loger, every=25)],
        )
        loop.run(workload)
        assert loop.summary()["n_queries"] == 40
