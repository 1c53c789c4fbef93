"""Tests for the unified framework and the end-to-end learned optimizers."""

import numpy as np
import pytest

from repro.core.framework import (
    OBSERVATION_WINDOW,
    CandidatePlan,
    LearnedOptimizer,
    RetrainCadence,
)
from repro.costmodel.features import plan_to_tree_arrays
from repro.costmodel import PlanFeaturizer
from repro.e2e import (
    AutoSteerOptimizer,
    BalsaOptimizer,
    BaoOptimizer,
    CardinalityScalingExploration,
    EnsembleLatencyModel,
    HintSetExploration,
    HyperQOOptimizer,
    LeadingTableExploration,
    LeonOptimizer,
    LeroOptimizer,
    NeoOptimizer,
    OptimizationLoop,
    PairwisePlanComparator,
    TreeConvLatencyModel,
)
from repro.e2e.autosteer import discover_hint_sets
from repro.sql import WorkloadGenerator


@pytest.fixture(scope="module")
def workload(imdb_db):
    gen = WorkloadGenerator(imdb_db, seed=80)
    return gen.workload(60, 2, 4, require_predicate=True)


@pytest.fixture(scope="module")
def featurizer(imdb_db, imdb_optimizer):
    return PlanFeaturizer(imdb_db, imdb_optimizer.estimator)


class TestExplorationStrategies:
    def test_hint_exploration_includes_default(self, imdb_optimizer, workload):
        strat = HintSetExploration(imdb_optimizer)
        cands = strat.candidates(workload[0])
        assert cands
        assert cands[0].source == "default"
        sigs = [c.plan.signature() for c in cands]
        assert len(sigs) == len(set(sigs))  # deduplicated

    def test_scaling_exploration_default_first(self, imdb_optimizer, workload):
        strat = CardinalityScalingExploration(imdb_optimizer)
        cands = strat.candidates(workload[0])
        assert cands[0].source == "default"

    def test_leading_exploration_orders(self, imdb_optimizer, workload):
        strat = LeadingTableExploration(imdb_optimizer)
        q = next(q for q in workload if q.n_tables >= 3)
        cands = strat.candidates(q)
        assert any(c.source.startswith("leading=") for c in cands)
        for c in cands:
            assert c.plan.root.tables == frozenset(q.tables)


class TestRiskModels:
    def _feed(self, model, imdb_optimizer, imdb_simulator, queries, strat):
        for q in queries:
            for cand in strat.candidates(q)[:3]:
                model.observe(cand, imdb_simulator.execute(cand.plan).latency_ms)
        model.retrain()

    def test_treeconv_warmup_prefers_default(self, featurizer, imdb_optimizer, workload):
        model = TreeConvLatencyModel(featurizer, seed=0)
        strat = HintSetExploration(imdb_optimizer)
        cands = strat.candidates(workload[0])
        scores = model.scores(cands)
        assert scores[0] == min(scores)

    def test_treeconv_learns_latency_ranking(
        self, featurizer, imdb_optimizer, imdb_simulator, workload
    ):
        model = TreeConvLatencyModel(featurizer, thompson=False, seed=0)
        strat = HintSetExploration(imdb_optimizer)
        self._feed(model, imdb_optimizer, imdb_simulator, workload[:25], strat)
        assert model._trained
        cands = strat.candidates(workload[30])
        # without Thompson sampling a score is the members' mean log latency
        scores = model.scores(cands)
        lats = np.array([imdb_simulator.execute(c.plan).latency_ms for c in cands])
        # Predicted-best should be among the actually-reasonable plans.
        best = int(np.argmin(scores))
        assert lats[best] <= np.median(lats) * 1.5

    def test_pairwise_comparator_orders_pairs(
        self, featurizer, imdb_optimizer, imdb_simulator, workload
    ):
        model = PairwisePlanComparator(featurizer, seed=0)
        strat = CardinalityScalingExploration(imdb_optimizer)
        self._feed(model, imdb_optimizer, imdb_simulator, workload[:25], strat)
        if not model._trained:
            pytest.skip("not enough distinct pairs in this workload")
        correct = 0
        total = 0
        for q in workload[30:40]:
            cands = strat.candidates(q)
            if len(cands) < 2:
                continue
            a, b = cands[0].plan, cands[1].plan
            la = imdb_simulator.execute(a).latency_ms
            lb = imdb_simulator.execute(b).latency_ms
            if abs(la - lb) / max(la, lb) < 0.1:
                continue
            p = model.compare(a, b)
            correct += int((p > 0.5) == (la < lb))
            total += 1
        if total >= 4:
            assert correct / total >= 0.5

    def test_pairwise_comparator_window_evicts_the_oldest_observation(self, featurizer):
        model = PairwisePlanComparator(featurizer, seed=0)
        tree = (np.zeros((1, featurizer.node_dim)), np.array([-1]), np.array([-1]))
        for latency in (10.0, 20.0, 40.0):  # q0: three pairs
            model.record("q0", tree, latency)
        rest = OBSERVATION_WINDOW - 3
        for i in range(rest):  # q1: its first (50 ms) pairs with each later one
            model.record(f"q{1 + i % 2}", tree, 50.0 if i == 0 else 10.0)
        q1, q2 = rest - rest // 2, rest // 2
        assert [len(v) for v in model._by_query.values()] == [3, q1, q2]
        assert model.n_pairs == 3 + (q1 - 1)
        model.record("q2", tree, 10.0)  # q0 loses its oldest observation
        assert [lat for _, lat in model._by_query["q0"]] == [20.0, 40.0]
        assert model.n_pairs == 1 + (q1 - 1)
        model.record("q2", tree, 10.0)
        model.record("q2", tree, 10.0)  # q0 is emptied and dropped
        assert list(model._by_query) == ["q1", "q2"]
        assert model.n_pairs == q1 - 1
        model.record("q3", tree, 10.0)  # q1 is the oldest now: its 50 ms goes
        assert len(model._by_query["q1"]) == q1 - 1
        assert model.n_pairs == 0
        assert sum(len(v) for v in model._by_query.values()) == OBSERVATION_WINDOW

    def test_pairwise_comparator_window_drops_a_stale_query(self, featurizer):
        # A hot query seen first does not shield a stale one seen later.
        model = PairwisePlanComparator(featurizer, seed=0)
        tree = (np.zeros((1, featurizer.node_dim)), np.array([-1]), np.array([-1]))
        model.record("hot", tree, 10.0)
        model.record("stale", tree, 50.0)
        for _ in range(OBSERVATION_WINDOW - 2):
            model.record("hot", tree, 20.0)
        model.record("hot", tree, 30.0)  # drops hot's 10 ms, the oldest of all
        assert [lat for _, lat in model._by_query["stale"]] == [50.0]
        assert model._by_query["hot"][0][1] == 20.0
        model.record("hot", tree, 30.0)  # drops the stale query's only one
        assert list(model._by_query) == ["hot"]
        assert len(model._by_query["hot"]) == OBSERVATION_WINDOW

    def test_ensemble_variance_filter_behind_default(self, featurizer, imdb_optimizer, workload):
        model = EnsembleLatencyModel(featurizer, seed=0)
        strat = HintSetExploration(imdb_optimizer)
        cands = strat.candidates(workload[0])
        scores = model.scores(cands)  # untrained: default wins
        assert scores[0] == min(scores)


class TestLearnedOptimizerFramework:
    def test_choose_plan_requires_candidates(self, imdb_optimizer):
        class Empty:
            def candidates(self, query):
                return []

        class Dummy:
            def scores(self, c):
                return []

            def observe(self, c, l):
                pass

            def retrain(self):
                pass

        lo = LearnedOptimizer(Empty(), Dummy())
        with pytest.raises(ValueError):
            lo.choose_plan(None)

    def test_feedback_triggers_retrain(self, imdb_optimizer, featurizer, workload):
        calls = {"retrain": 0}

        class Spy(TreeConvLatencyModel):
            def retrain(self):
                calls["retrain"] += 1

        bao = BaoOptimizer(imdb_optimizer, seed=0)
        bao.risk_model = Spy(featurizer, seed=0)
        cadence = RetrainCadence(bao, every=5)
        for q in workload[:5]:
            cand = bao.choose_plan(q)
            bao.record_feedback(q, cand, 1.0)
            assert calls["retrain"] == 0  # feedback only records
            cadence.tick()
        assert calls["retrain"] == 1 and bao.feedbacks == 5
        assert len(bao.risk_model._latencies) == 5

    def test_learned_arm_keeps_a_sliding_window(self, imdb_optimizer, workload):
        bao = BaoOptimizer(imdb_optimizer, seed=0)
        model = bao.risk_model
        cands = [CandidatePlan(imdb_optimizer.plan(q), "default") for q in workload[:5]]
        for i in range(2500):
            bao.record_feedback(workload[i % 5], cands[i % 5], float(i))
        assert OBSERVATION_WINDOW == 2000
        assert len(model._latencies) == len(model._trees) == 2000
        # The retained window is the newest 2,000, oldest first.
        assert list(model._latencies) == list(map(float, range(500, 2500)))
        oldest = plan_to_tree_arrays(cands[500 % 5].plan, model.featurizer)
        assert np.array_equal(model._trees[0][0], oldest[0])


def run_loop(learned, imdb_optimizer, imdb_simulator, workload, guard=None):
    loop = OptimizationLoop(
        learned, imdb_simulator, imdb_optimizer, guard=guard,
        policies=[RetrainCadence(learned, every=25)],
    )
    loop.run(workload)
    return loop


class TestEndToEndOptimizers:
    def test_bao_improves_over_native(self, imdb_db, imdb_optimizer, imdb_simulator):
        # Needs enough feedback for the Thompson-sampled model to converge:
        # 120 queries, judged on the post-warm-up tail.
        long_workload = WorkloadGenerator(imdb_db, seed=80).workload(
            120, 2, 4, require_predicate=True
        )
        bao = BaoOptimizer(imdb_optimizer, seed=0)
        loop = run_loop(bao, imdb_optimizer, imdb_simulator, long_workload)
        s = loop.summary(tail=60)
        assert s["workload_speedup"] > 1.1

    def test_lero_offline_training_collects_pairs(
        self, imdb_optimizer, imdb_simulator, workload
    ):
        lero = LeroOptimizer(imdb_optimizer, seed=0)
        n_pairs = lero.train_offline(workload[:20], imdb_simulator.latency)
        assert n_pairs > 0

    def test_neo_bootstrap_then_search(self, imdb_optimizer, imdb_simulator, workload):
        neo = NeoOptimizer(imdb_optimizer, seed=0)
        neo.bootstrap_from_expert(
            workload[:15], imdb_simulator.latency, RetrainCadence(neo, every=25)
        )
        assert neo.risk_model.trained
        cand = neo.choose_plan(workload[20])
        assert cand.source == "search"
        assert cand.plan.root.tables == frozenset(workload[20].tables)

    def test_neo_untrained_uses_native(self, imdb_optimizer, workload):
        neo = NeoOptimizer(imdb_optimizer, seed=0)
        assert neo.choose_plan(workload[0]).source == "default"

    def test_balsa_sim_bootstrap(self, imdb_optimizer, workload):
        balsa = BalsaOptimizer(imdb_optimizer, seed=0)
        balsa.bootstrap_from_simulation(workload[:10], episodes_per_query=2)
        assert balsa.risk_model.trained
        cand = balsa.choose_plan(workload[20])
        assert cand.source == "search"

    def test_leon_dp_candidates(self, imdb_optimizer, imdb_simulator, workload):
        leon = LeonOptimizer(imdb_optimizer, shadow_executor=imdb_simulator.latency, seed=0)
        q = next(q for q in workload if q.n_tables >= 3)
        entries = leon.exploration.dp_candidates(q)
        assert 1 <= len(entries) <= 2
        for node, cost in entries:
            assert node.tables == frozenset(q.tables)
            assert cost > 0

    def test_leon_shadow_execution_builds_pairs(
        self, imdb_optimizer, imdb_simulator, workload
    ):
        leon = LeonOptimizer(
            imdb_optimizer, shadow_executor=imdb_simulator.latency, seed=0
        )
        loop = run_loop(leon, imdb_optimizer, imdb_simulator, workload[:20])
        assert leon.risk_model.n_pairs > 0

    def test_hyperqo_runs_safely(self, imdb_optimizer, imdb_simulator, workload):
        hq = HyperQOOptimizer(imdb_optimizer, seed=0)
        loop = run_loop(hq, imdb_optimizer, imdb_simulator, workload)
        s = loop.summary(tail=30)
        assert s["worst_regression"] < 3.0

    def test_autosteer_discovers_impactful_arms(self, imdb_optimizer, workload):
        arms = discover_hint_sets(imdb_optimizer, workload[:8])
        assert arms[0].name() == "hash+nlj+merge/seq+idx"
        assert len(arms) >= 2

    def test_autosteer_runs(self, imdb_optimizer, imdb_simulator, workload):
        auto = AutoSteerOptimizer(imdb_optimizer, workload[:5], seed=0)
        loop = run_loop(auto, imdb_optimizer, imdb_simulator, workload[:20])
        assert len(loop.results) == 20


class TestOptimizationLoop:
    def test_summary_fields(self, imdb_optimizer, imdb_simulator, workload):
        bao = BaoOptimizer(imdb_optimizer, seed=1)
        loop = run_loop(bao, imdb_optimizer, imdb_simulator, workload[:10])
        s = loop.summary()
        assert s["n_queries"] == 10
        assert s["total_latency_ms"] > 0
        assert s["workload_speedup"] > 0

    def test_summary_empty_raises(self, imdb_optimizer, imdb_simulator):
        bao = BaoOptimizer(imdb_optimizer, seed=1)
        loop = OptimizationLoop(bao, imdb_simulator, imdb_optimizer)
        with pytest.raises(ValueError):
            loop.summary()

    def test_episode_properties(self, imdb_optimizer, imdb_simulator, workload):
        bao = BaoOptimizer(imdb_optimizer, seed=1)
        loop = run_loop(bao, imdb_optimizer, imdb_simulator, workload[:3])
        r = loop.results[0]
        assert r.speedup == pytest.approx(1.0 / r.regression)
