"""The in-place retrain cadence: one rule, counted on the model's own feedback.

``RetrainCadence(model, every=n)`` refits ``model`` once it has recorded
``n`` more feedbacks than at its last refit.  A wrapper forwards feedback
to the model it serves, and a decision that fed nothing back does not move
the count -- whichever host ticks the cadence: a deployment, the offline
loop or an expert bootstrap.
"""

import pytest

from repro.core import PlannerModel, RetrainCadence
from repro.core.framework import CandidatePlan
from repro.costmodel import PlanFeaturizer
from repro.e2e import BaoOptimizer, OptimizationLoop
from repro.engine import ExecutionSimulator
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.optimizer import HintSet
from repro.regression import PerfGuard
from repro.rewrite import GoldExampleStore, PromotionLeaderboard
from repro.serve import DeploymentManager, Stage
from repro.serve.scenarios import (
    RegressionInjector,
    chaos_scenario,
    injected_regression_scenario,
    steady_state_scenario,
)
from repro.serve.telemetry import TelemetryBus
from repro.sql import WorkloadGenerator
from repro.storage import make_stats_lite


def _spy_refits(model) -> list[int]:
    """Stand in for ``model.retrain``: note ``model.feedbacks`` per call."""
    refits = []
    model.retrain = lambda: refits.append(model.feedbacks)
    return refits


def _crashing(model):
    """``model`` behind a wrapper whose ``choose_plan`` raises on a seeded
    half of the calls."""
    plan = FaultPlan((FaultSpec(kind="exception", rate=0.5, target="learned"),), seed=0)
    return FaultInjector(plan, telemetry=TelemetryBus()).wrap_learned(model)


def test_refits_every_n_feedbacks_counted_from_the_last_refit():
    class Model:
        feedbacks = 5

        def retrain(self):
            refits.append(self.feedbacks)

    refits = []
    model = Model()
    cadence = RetrainCadence(model, every=3)  # counts from the 5 it finds
    for _ in range(4):
        model.feedbacks += 1
        cadence.tick()
    assert refits == [8]
    cadence.retrain()  # an explicit refit restarts the count
    for _ in range(3):
        cadence.tick()  # no new feedback, no refit
        model.feedbacks += 1
    cadence.tick()
    assert refits == [8, 9, 12]


@pytest.mark.parametrize("kind", ["regression_injector", "faulty"])
def test_a_wrapped_model_refits_at_its_own_feedback_count(kind):
    db = make_stats_lite(scale=0.15, seed=0)
    leaderboard = PromotionLeaderboard(db, store=GoldExampleStore(db))
    optimizer = leaderboard.optimizer
    bao = BaoOptimizer(optimizer, seed=0)
    refits = _spy_refits(bao)
    wrapped = {
        "regression_injector": lambda: RegressionInjector(bao, optimizer, trigger_at=4),
        "faulty": lambda: _crashing(bao),
    }[kind]()
    loop = OptimizationLoop(
        wrapped,
        ExecutionSimulator(db, executor=leaderboard.executor),
        optimizer,
        policies=[RetrainCadence(bao, every=3)],
    )
    decisions = loop.run(WorkloadGenerator(db, seed=11).rewrite_susceptible_workload(12))
    # Crashed choices never reach the inner model; the injector forwards
    # even its sabotaged plans' feedback.
    skipped = sum(d.plan_source == "native:fallback" for d in decisions)
    assert (skipped > 0) == (kind != "regression_injector")
    assert bao.feedbacks == len(decisions) - skipped
    assert refits == list(range(3, bao.feedbacks + 1, 3))


@pytest.mark.parametrize("host", ["degraded_serve", "shadow_crash", "loop_fallback"])
def test_decisions_that_feed_nothing_back_do_not_tick_it(
    host, stats_optimizer, stats_simulator, stats_workload
):
    bao = BaoOptimizer(stats_optimizer, seed=0)
    refits = _spy_refits(bao)
    crashing = _crashing(bao)
    cadence = RetrainCadence(bao, every=3)
    queries = stats_workload[:15]
    if host == "loop_fallback":
        loop = OptimizationLoop(
            crashing, stats_simulator, stats_optimizer, policies=[cadence]
        )
        decisions = loop.run(queries)
        skipped = sum(d.plan_source == "native:fallback" for d in decisions)
    else:
        deployment = DeploymentManager(
            crashing,
            stats_optimizer,
            stats_simulator,
            stage=Stage.LIVE if host == "degraded_serve" else Stage.SHADOW,
            regression_threshold=1e9,
            policies=[cadence],
        )
        decisions = [deployment.serve(q) for q in queries]
        skipped = deployment.learned_failures
    assert skipped > 0
    assert bao.feedbacks == len(decisions) - skipped
    assert refits == list(range(3, bao.feedbacks + 1, 3))


@pytest.mark.parametrize("host", ["loop", "deployment"])
def test_perfguard_refits_every_30_of_its_own_records(
    host, stats_db, stats_optimizer, stats_simulator
):
    guard = PerfGuard(PlanFeaturizer(stats_db, stats_optimizer.estimator))
    refits = _spy_refits(guard)
    cadence = RetrainCadence(guard, every=30)
    planner = PlannerModel(stats_optimizer)
    queries = WorkloadGenerator(stats_db, seed=5).workload(64, 1, 3, require_predicate=True)
    if host == "loop":
        OptimizationLoop(
            planner, stats_simulator, stats_optimizer, guard=guard, policies=[cadence]
        ).run(queries)
    else:
        deployment = DeploymentManager(
            planner,
            stats_optimizer,
            stats_simulator,
            guards=(guard,),
            stage=Stage.LIVE,
            policies=[cadence],
        )
        for q in queries:
            deployment.serve(q)
    assert guard.decisions == guard.feedbacks == 64
    assert refits == [30, 60]


def test_the_loop_refits_a_guard_between_its_two_records(
    stats_optimizer, stats_simulator, stats_workload
):
    """A guard refit trains on what the guard held when ``record`` returned;
    the query's native plan joins it afterwards."""
    events = []

    class Guard:
        feedbacks = 0

        def __call__(self, query, candidate, native_plan):
            return candidate

        def record(self, *args):
            self.feedbacks += 1
            events.append("record")

        def record_native(self, *args):
            events.append("native")

        def retrain(self):
            events.append("retrain")

    nested_loops = HintSet(enable_hash_join=False, enable_merge_join=False)

    class Risky:
        def choose_plan(self, query):
            return CandidatePlan(stats_optimizer.plan(query, hints=nested_loops), "risky")

        def record_feedback(self, query, candidate, latency_ms):
            pass

    guard = Guard()
    OptimizationLoop(
        Risky(), stats_simulator, stats_optimizer, guard=guard,
        policies=[RetrainCadence(guard, every=1)],
    ).run(stats_workload[:12])
    assert events.count("retrain") == 12 and "native" in events
    assert all(events[i - 1] == "retrain" for i, e in enumerate(events) if e == "native")


@pytest.mark.parametrize(
    "build", [steady_state_scenario, injected_regression_scenario, chaos_scenario]
)
def test_scenarios_refit_the_bao_they_serve_every_25_feedbacks(build):
    deployment = build().deployment
    cadence = deployment.policies[0]
    assert isinstance(cadence, RetrainCadence) and cadence.every == 25
    served = getattr(deployment.learned, "inner", deployment.learned)  # through a wrapper
    assert cadence.model is served and isinstance(served, BaoOptimizer)
