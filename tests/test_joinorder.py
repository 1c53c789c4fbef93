"""Tests for the join-order MDP and the four learned search methods."""

import numpy as np
import pytest

from repro.joinorder import (
    DQJoinOrderSearch,
    EddyJoinOrderSearch,
    JoinOrderEnv,
    MCTSJoinOrderSearch,
    RTOSJoinOrderSearch,
    plan_from_order,
)
from repro.sql import WorkloadGenerator


@pytest.fixture(scope="module")
def join_query(imdb_db):
    gen = WorkloadGenerator(imdb_db, seed=70)
    return next(q for q in gen.workload(30, 4, 4, require_predicate=True))


class TestJoinOrderEnv:
    def test_first_action_any_table(self, join_query):
        env = JoinOrderEnv(join_query)
        assert set(env.valid_actions()) == set(join_query.tables)

    def test_actions_stay_connected(self, join_query):
        env = JoinOrderEnv(join_query)
        rng = np.random.default_rng(0)
        while not env.done:
            actions = env.valid_actions()
            assert actions, "connected query must always have a valid action"
            choice = actions[rng.integers(len(actions))]
            env.step(choice)
            assert join_query.subquery(env.prefix).is_connected()

    def test_rejects_duplicate(self, join_query):
        env = JoinOrderEnv(join_query)
        first = env.valid_actions()[0]
        env.step(first)
        with pytest.raises(ValueError):
            env.step(first)

    def test_rejects_disconnected_extension(self, imdb_db):
        gen = WorkloadGenerator(imdb_db, seed=71)
        q = gen.join_template_workload(
            ["cast_info", "person", "title"], 1
        )[0]
        env = JoinOrderEnv(q)
        env.step("person")
        # title is not adjacent to person (only via cast_info).
        with pytest.raises(ValueError):
            env.step("title")

    def test_reset(self, join_query):
        env = JoinOrderEnv(join_query)
        env.step(env.valid_actions()[0])
        env.reset()
        assert env.prefix == []


class TestPlanFromOrder:
    def test_valid_plan(self, join_query, imdb_optimizer):
        order = list(join_query.tables)
        # Build a connected order by walking the env.
        env = JoinOrderEnv(join_query)
        while not env.done:
            env.step(env.valid_actions()[0])
        plan = plan_from_order(join_query, env.prefix, imdb_optimizer.coster)
        assert plan.root.tables == frozenset(join_query.tables)
        # The join *sequence* must follow the order: the k-th join (bottom
        # up) covers exactly the first k+1 tables of the prefix.  Leaf
        # order may flip because the coster picks build/probe sides.
        joins = sorted(plan.join_nodes(), key=lambda n: len(n.tables))
        for k, node in enumerate(joins):
            assert node.tables == frozenset(env.prefix[: k + 2])

    def test_rejects_wrong_tables(self, join_query, imdb_optimizer):
        with pytest.raises(ValueError):
            plan_from_order(join_query, ["title"], imdb_optimizer.coster)

    def test_rejects_disconnected_order(self, imdb_db, imdb_optimizer):
        gen = WorkloadGenerator(imdb_db, seed=72)
        q = gen.join_template_workload(["cast_info", "person", "title"], 1)[0]
        with pytest.raises(ValueError):
            plan_from_order(
                q, ["person", "title", "cast_info"], imdb_optimizer.coster
            )


@pytest.fixture(scope="module")
def trained_dq(imdb_db, imdb_optimizer):
    gen = WorkloadGenerator(imdb_db, seed=73)
    train = gen.workload(20, 3, 4, require_predicate=True)
    dq = DQJoinOrderSearch(imdb_optimizer, seed=0)
    dq.train(train, episodes_per_query=3)
    return dq


class TestDQ:
    def test_search_returns_valid_plan(self, trained_dq, join_query):
        plan = trained_dq.search(join_query)
        assert plan.root.tables == frozenset(join_query.tables)

    def test_cost_not_catastrophic(self, trained_dq, imdb_optimizer, imdb_db):
        gen = WorkloadGenerator(imdb_db, seed=74)
        ratios = []
        for q in gen.workload(10, 3, 4, require_predicate=True):
            learned_cost = imdb_optimizer.cost(trained_dq.search(q))
            dp_cost = imdb_optimizer.cost(imdb_optimizer.plan(q))
            ratios.append(learned_cost / max(dp_cost, 1e-9))
        assert np.median(ratios) < 3.0

    def test_training_populates_buffer(self, trained_dq):
        assert len(trained_dq._buffer_y) > 0
        assert trained_dq._trained


class TestRTOS:
    def test_trains_and_searches(self, imdb_db, imdb_optimizer):
        gen = WorkloadGenerator(imdb_db, seed=75)
        train = gen.workload(10, 3, 4, require_predicate=True)
        rtos = RTOSJoinOrderSearch(imdb_optimizer, seed=0)
        rtos.train(train, episodes_per_query=2)
        q = train[0]
        plan = rtos.search(q)
        assert plan.root.tables == frozenset(q.tables)


class TestMCTS:
    def test_search_with_latency_feedback(self, imdb_optimizer, imdb_simulator, join_query):
        mcts = MCTSJoinOrderSearch(imdb_optimizer, evaluate=imdb_simulator.latency, seed=0)
        plan, diag = mcts.search(join_query, iterations=25)
        assert plan.root.tables == frozenset(join_query.tables)
        assert len(diag["latencies"]) == 25
        assert diag["best_latency"] == min(diag["latencies"])

    def test_more_iterations_do_not_hurt(self, imdb_optimizer, imdb_simulator, join_query):
        mcts = MCTSJoinOrderSearch(imdb_optimizer, evaluate=imdb_simulator.latency, seed=1)
        _, few = mcts.search(join_query, iterations=5)
        mcts2 = MCTSJoinOrderSearch(imdb_optimizer, evaluate=imdb_simulator.latency, seed=1)
        _, many = mcts2.search(join_query, iterations=40)
        assert many["best_latency"] <= few["best_latency"] + 1e-9

    def test_single_table(self, imdb_optimizer, imdb_simulator, imdb_db):
        gen = WorkloadGenerator(imdb_db, seed=76)
        q = gen.single_table_workload("title", 1)[0]
        mcts = MCTSJoinOrderSearch(imdb_optimizer, evaluate=imdb_simulator.latency)
        plan, _ = mcts.search(q)
        assert plan.root.tables == frozenset(q.tables)


class TestEddy:
    def test_adaptive_order_valid(self, imdb_optimizer, join_query):
        eddy = EddyJoinOrderSearch(imdb_optimizer, seed=0)
        plan = eddy.search(join_query)
        assert plan.root.tables == frozenset(join_query.tables)

    def test_order_quality(self, imdb_optimizer, imdb_simulator, imdb_db):
        gen = WorkloadGenerator(imdb_db, seed=77)
        eddy = EddyJoinOrderSearch(imdb_optimizer, seed=0)
        ratios = []
        for q in gen.workload(8, 3, 4, require_predicate=True):
            lat = imdb_simulator.execute(eddy.search(q)).latency_ms
            dp = imdb_simulator.execute(imdb_optimizer.plan(q)).latency_ms
            ratios.append(lat / max(dp, 1e-9))
        # Eddies learn true fan-outs online; should be near the native plan.
        assert np.median(ratios) < 2.0
