"""Old vs new: the framework instances against the hand-rolled loops.

``tests/e2e_reference.py`` holds Neo / Balsa / LOGER / LEON, the two
PilotScope steering drivers and RTOS's state encoder as they stood when
each owned its own feedback / retrain loop.  The ``LearnedOptimizer``
instances that replaced them must make the same decisions from the same
seed -- ``(source, plan, latency)`` per query, the same feedback stream --
and end with bit-equal network weights.
"""

import numpy as np
import pytest

from repro.core.framework import CandidatePlan, RetrainCadence
from repro.costmodel.features import PlanFeaturizer, prefix_to_tree_arrays
from repro.e2e import (
    BalsaOptimizer,
    LeonOptimizer,
    LogerOptimizer,
    NeoOptimizer,
    OptimizationLoop,
)
from repro.engine.plans import Plan
from repro.optimizer import HintSet
from repro.joinorder.env import JoinOrderEnv
from repro.pilotscope import (
    BaoDriver,
    LeroDriver,
    PilotScopeConsole,
    SimulatedPostgreSQL,
)
from repro.sql import WorkloadGenerator
from tests import e2e_reference as ref


@pytest.fixture(scope="module", params=["imdb", "stats"])
def stack(request, imdb_db, imdb_optimizer, imdb_simulator,
          stats_db, stats_optimizer, stats_simulator):
    if request.param == "imdb":
        db, optimizer, simulator = imdb_db, imdb_optimizer, imdb_simulator
    else:
        db, optimizer, simulator = stats_db, stats_optimizer, stats_simulator
    train = WorkloadGenerator(db, seed=41).workload(40, 2, 5, require_predicate=True)
    serve = WorkloadGenerator(db, seed=42).workload(60, 1, 5, require_predicate=True)
    return optimizer, simulator, train, serve


def _decisions(learned, stack, prepare, cadence=None):
    """``prepare`` the optimizer, serve the workload through
    ``OptimizationLoop``; return what was served and everything fed back
    (a spy on ``record_feedback``, the same on either side).  A reference
    refits in band; a framework instance through ``cadence``, the loop's
    one policy."""
    optimizer, simulator, train, serve = stack
    prepare(learned, train, simulator, cadence)
    history = []
    record_feedback = learned.record_feedback

    def spy(query, candidate, latency_ms):
        history.append(
            (query, candidate.source, candidate.plan.signature(), latency_ms)
        )
        record_feedback(query, candidate, latency_ms)

    learned.record_feedback = spy
    loop = OptimizationLoop(
        learned, simulator, optimizer,
        policies=[] if cadence is None else [cadence],
    )
    served = []
    for q in serve:
        before = len(history)
        result = loop.run_query(q)
        assert len(history) == before + 1
        served.append((result.plan_source, history[-1][2], result.latency_ms))
    assert loop.fallbacks == 0
    return served, history


def _same_run(old, new, stack, prepare=lambda learned, train, simulator, cadence: None):
    served_old, history_old = _decisions(old, stack, prepare)
    served_new, history_new = _decisions(
        new, stack, prepare, RetrainCadence(new, every=25)
    )
    assert served_new == served_old
    assert history_new == history_old
    return served_new


def _expert(learned, train, simulator, cadence):
    args = () if cadence is None else (cadence,)  # the reference refits in band
    learned.bootstrap_from_expert(train, simulator.latency, *args)


class _CountingRng:
    """Delegates to a generator, counting the epsilon slot's draws."""

    def __init__(self, rng):
        self.rng, self.slot_draws = rng, 0

    def random(self):
        return self.rng.random()

    def integers(self, n):
        self.slot_draws += 1
        return self.rng.integers(n)


class TestValueSearch:
    def test_neo_expert_bootstrapped(self, stack):
        optimizer = stack[0]
        old, new = ref.NeoOptimizer(optimizer, seed=3), NeoOptimizer(optimizer, seed=3)
        served = _same_run(old, new, stack, _expert)
        assert {source for source, _, _ in served} == {"search"}
        assert new.risk_model.trained
        assert np.array_equal(new.risk_model.net.flat_params, old.net.flat_params)

    def test_neo_cold_with_exhausted_budget(self, stack):
        optimizer, _, _, serve = stack
        old = ref.NeoOptimizer(optimizer, seed=1, search_budget=3)
        new = NeoOptimizer(optimizer, seed=1, search_budget=3)
        served = _same_run(old, new, stack)
        sources = [source for source, _, _ in served]
        assert sources[0] == "default" and sources[-1] == "search"
        # Three expansions cannot complete a 4-table order: every such
        # query took the greedy-completion branch.
        assert any(
            q.n_tables >= 4 and source == "search" for q, source in zip(serve, sources)
        )
        assert np.array_equal(new.risk_model.net.flat_params, old.net.flat_params)

    def test_balsa_simulation_bootstrapped(self, stack):
        optimizer = stack[0]

        def simulate(learned, train, simulator, cadence):
            learned.bootstrap_from_simulation(train[:15], episodes_per_query=2)

        old, new = ref.BalsaOptimizer(optimizer, seed=2), BalsaOptimizer(optimizer, seed=2)
        served = _same_run(old, new, stack, simulate)
        assert served[0][0] == "search"
        assert np.array_equal(new.risk_model.net.flat_params, old.net.flat_params)

    def test_loger_epsilon_slot_fires(self, stack):
        optimizer = stack[0]
        old = ref.LogerOptimizer(optimizer, seed=5)
        new = LogerOptimizer(optimizer, seed=5)
        old._eps_rng = _CountingRng(old._eps_rng)
        new.exploration._eps_rng = _CountingRng(new.exploration._eps_rng)
        _same_run(old, new, stack, _expert)
        assert new.exploration._eps_rng.slot_draws == old._eps_rng.slot_draws > 0
        assert np.array_equal(new.risk_model.net.flat_params, old.net.flat_params)


class TestTopKDP:
    def _pair(self, optimizer, **kwargs):
        return (
            ref.LeonOptimizer(optimizer, seed=4, **kwargs),
            LeonOptimizer(optimizer, seed=4, **kwargs),
        )

    def test_leon_shadow_executes_the_runner_up(self, stack):
        old, new = self._pair(stack[0], shadow_executor=stack[1].latency)
        served = _same_run(old, new, stack)
        assert "explore" not in {source for source, _, _ in served}
        assert new.risk_model.n_pairs == old.comparator.n_pairs > 0
        assert np.array_equal(new.risk_model.net.flat_params, old.comparator.net.flat_params)

    def test_leon_with_a_trained_comparator(self, stack):
        """The untrained cases never reach ``_rank``'s learned branch; the
        two survivors plus a hash-join-free plan per query give the 15
        informative pairs a fit needs."""
        no_hash = HintSet(enable_hash_join=False)

        def pretrain(learned, train, simulator, cadence):
            if isinstance(learned, LeonOptimizer):
                survivors, comparator = learned.exploration.dp_candidates, learned.risk_model
            else:
                survivors, comparator = learned._dp_candidates, learned.comparator
            for q in train:
                plans = [Plan(q, node) for node, _ in survivors(q)]
                for plan in plans + [stack[0].plan(q, hints=no_hash)]:
                    comparator.observe(CandidatePlan(plan, "dp"), simulator.latency(plan))
            comparator.retrain()
            assert comparator.trained

        old, new = self._pair(stack[0], shadow_executor=stack[1].latency)
        _same_run(old, new, stack, pretrain)
        assert np.array_equal(new.risk_model.net.flat_params, old.comparator.net.flat_params)


@pytest.mark.parametrize(
    "old_cls, new_cls", [(ref.BaoDriver, BaoDriver), (ref.LeroDriver, LeroDriver)],
    ids=["bao", "lero"],
)
def test_steering_drivers_through_the_console(stats_db, old_cls, new_cls):
    train = WorkloadGenerator(stats_db, seed=43).workload(25, 1, 4, require_predicate=True)
    serve = WorkloadGenerator(stats_db, seed=44).workload(90, 1, 4, require_predicate=True)

    def replay(driver, updates_every=None):
        console = PilotScopeConsole(SimulatedPostgreSQL(stats_db))
        console.register_driver(driver)
        console.start_driver(driver.name)
        driver.collect_training_data(train)
        driver.train()
        if updates_every is not None:
            console.enable_background_updates(updates_every)
        plans = [console.execute(q).plan.signature() for q in serve]
        assert {entry.served_by for entry in console.query_log} == {driver.name}
        return plans, [(e.cardinality, e.latency_ms) for e in console.query_log]

    # The reference refits in band every 25 feedbacks; the instance only
    # through the console's background updates, at the same period.
    old, new = old_cls(seed=6), new_cls(seed=6)
    assert replay(new, updates_every=25) == replay(old)
    assert new.risk_model.trained and old.risk_model.trained
    for model_new, model_old in zip(_nets(new.risk_model), _nets(old.risk_model)):
        assert np.array_equal(model_new.flat_params, model_old.flat_params)


def _nets(risk_model):
    """The nets to compare: a bootstrap ensemble's after its owed fits ran."""
    return risk_model.members() if hasattr(risk_model, "members") else [risk_model.net]


def test_prefix_encoder_matches_both_reference_encoders(stack):
    optimizer, _, train, serve = stack
    neo, rtos = ref.NeoOptimizer(optimizer), ref.RTOSPartialTree(optimizer)
    featurizer = PlanFeaturizer(optimizer.db, coster=optimizer.coster)
    rng = np.random.default_rng(0)
    for query in train + serve:
        env = JoinOrderEnv(query)
        while not env.done:
            actions = env.valid_actions()
            env.step(actions[rng.integers(len(actions))])
            new = prefix_to_tree_arrays(query, env.prefix, featurizer)
            for old in (
                neo._partial_tree(query, list(env.prefix)),
                rtos._partial_tree(query, list(env.prefix)),
            ):
                assert all(
                    a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(old, new)
                )
