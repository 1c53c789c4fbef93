"""One Bao decision computes each plan and each plan node once.

- ``Optimizer.plan(q)`` right after ``plan_arms(q, arms)`` is the sweep's
  default lane, and equals a fresh DP.  Any other planning -- another
  ``Query`` object, other hints, another algorithm or risk mode, a
  ``data_version`` bump, an estimator refit, another optimizer -- plans
  from scratch.
- The candidates of one decision are featurized into one node table, so
  a node the arm sweep shares is featurized once; every tree equals the
  featurization of its plan alone, the table dies with the decision, and
  ``observe`` reuses the chosen candidate's tree.
- Neither the remembered sweep nor what a decision keeps is seen by a
  model fingerprint, so a registered model still verifies.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.bench import apply_drift
from repro.cardest.bounds import MCVJoinBoundEstimator
from repro.core.framework import CandidatePlan
from repro.core.interfaces import CardinalityEstimator
from repro.costmodel import PlanFeaturizer
from repro.costmodel.features import NodeTable, plan_to_tree_arrays
from repro.e2e import BaoOptimizer
from repro.e2e.exploration import HintSetExploration
from repro.e2e.risk_models import TreeConvLatencyModel
from repro.engine.plans import Plan
from repro.lifecycle import ModelRegistry
from repro.optimizer import HintSet, Optimizer
from repro.optimizer.planner import enumerate_dp, enumerate_greedy
from repro.optimizer.traditional import TraditionalCardinalityEstimator
from repro.serve.telemetry import TelemetryBus
from repro.sql import Query, WorkloadGenerator
from repro.storage import make_stats_lite

ARMS = HintSet.bao_arms()


class Dial(CardinalityEstimator):
    """A base estimator's answers times ``factor``; turning it is a refit."""

    def __init__(self, base) -> None:
        self.base = base
        self.factor = 1.0
        self.estimates_version = 0

    def estimate(self, query) -> float:
        return self.base.estimate(query) * self.factor

    def turn(self, factor: float) -> None:
        self.factor = factor
        self.estimates_version += 1


def _queries(db, seed=71, n=25):
    return WorkloadGenerator(db, seed=seed).workload(n, 2, 5, require_predicate=True)


def _same_tree(a, b) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a, b))


@pytest.fixture
def dial_optimizer(stats_db):
    return Optimizer(stats_db, Dial(TraditionalCardinalityEstimator(stats_db)))


# -- the native plan is the sweep's default lane ----------------------------------------


def test_plan_after_a_sweep_is_its_default_lane_and_a_fresh_dp(stats_db):
    optimizer = Optimizer(stats_db)
    for q in _queries(stats_db):
        swept = optimizer.plan_arms(q, ARMS)
        native = optimizer.plan(q)
        assert native is swept[0]
        assert native == enumerate_dp(q, optimizer.coster)
        assert optimizer.plan(q, hints=HintSet.default()) is swept[0]


def test_the_default_lane_is_found_anywhere_in_the_arms(stats_db):
    optimizer = Optimizer(stats_db)
    q = _queries(stats_db)[0]
    arms = ARMS[1:4] + [HintSet.default()]
    swept = optimizer.plan_arms(q, arms)
    assert optimizer.plan(q) is swept[-1]
    # A sweep without the default hint set leaves nothing to reuse.
    swept = optimizer.plan_arms(q, ARMS[1:4])
    plan = optimizer.plan(q)
    assert plan == enumerate_dp(q, optimizer.coster)
    assert all(plan is not p for p in swept)


def test_not_reused_after_a_data_version_bump():
    db = make_stats_lite(scale=0.1, seed=3)
    optimizer = Optimizer(db)
    for q in _queries(db, seed=5, n=6):
        default = optimizer.plan_arms(q, ARMS)[0]
        apply_drift(db, fraction=0.1, seed=len(q.tables))
        plan = optimizer.plan(q)
        assert plan is not default
        assert plan == enumerate_dp(q, optimizer.coster)


def test_not_reused_after_an_estimator_refit(stats_db, dial_optimizer):
    optimizer = dial_optimizer
    moved = 0
    for q in _queries(stats_db, n=10):
        optimizer.estimator.turn(1.0)
        default = optimizer.plan_arms(q, ARMS)[0]
        optimizer.estimator.turn(40.0)
        plan = optimizer.plan(q)
        assert plan is not default
        assert plan == enumerate_dp(q, optimizer.coster)
        moved += plan != default
    assert moved > 0, "the refit must change some plan for this test to bite"


@pytest.mark.parametrize(
    "call",
    [
        lambda opt, q: opt.plan(q, hints=ARMS[3]),
        lambda opt, q: opt.plan(q, algorithm="greedy"),
        lambda opt, q: opt.plan(q, algorithm="left_deep"),
    ],
    ids=["other_hints", "greedy", "left_deep"],
)
def test_not_reused_for_another_planning(stats_db, call):
    optimizer = Optimizer(stats_db)
    for q in _queries(stats_db, n=10):
        swept = optimizer.plan_arms(q, ARMS)
        plan = call(optimizer, q)
        assert all(plan is not p for p in swept)
    # The wrong lane would be caught by value too.
    assert optimizer.plan(q, hints=ARMS[3]) == enumerate_dp(
        q, optimizer.coster, ARMS[3]
    )
    assert optimizer.plan(q, algorithm="greedy") == enumerate_greedy(
        q, optimizer.coster
    )


def test_not_reused_for_another_risk_mode(stats_db):
    optimizer = Optimizer(stats_db, bound_estimator=MCVJoinBoundEstimator(stats_db))
    for q in _queries(stats_db, n=8):
        expected = optimizer.plan_arms(q, ARMS)[0]
        worst = optimizer.plan(q, risk="worst_case")
        assert worst is not expected
        assert worst == enumerate_dp(q, optimizer._planning_coster("worst_case", None))
        blended = optimizer.plan_arms(q, ARMS, risk="blended", risk_lambda=0.3)[0]
        assert optimizer.plan(q, risk="blended", risk_lambda=0.3) is blended
        assert optimizer.plan(q, risk="blended", risk_lambda=0.6) is not blended
        assert optimizer.plan(q) is not blended
        assert optimizer.plan(q) == expected


def test_not_reused_for_an_equal_query_object(stats_db):
    optimizer = Optimizer(stats_db)
    for q in _queries(stats_db, n=10):
        twin = Query(q.tables, q.joins, q.predicates)
        assert twin == q and twin is not q
        default = optimizer.plan_arms(q, ARMS)[0]
        plan = optimizer.plan(twin)
        assert plan is not default and plan == default


def test_not_reused_by_another_optimizer_sharing_the_cache(stats_db):
    optimizer = Optimizer(stats_db)
    other = optimizer.with_estimator(optimizer.estimator)
    q = _queries(stats_db)[0]
    default = optimizer.plan_arms(q, ARMS)[0]
    assert other.plan(q) is not default
    assert optimizer.plan(q) is default


def test_the_remembered_sweep_keeps_no_optimizer_alive(stats_db):
    optimizer = Optimizer(stats_db)
    optimizer.plan_arms(_queries(stats_db)[0], ARMS)
    ref = weakref.ref(optimizer)
    del optimizer
    gc.collect()
    assert ref() is None


# -- each plan node featurized once per decision -----------------------------------------


def _decision(optimizer, q):
    """A decision's deduped candidates, as Bao's exploration makes them."""
    return HintSetExploration(optimizer).candidates(q)


def _counting(featurizer, monkeypatch):
    """The ``(query, node)`` of every table row the featurizer fills."""
    rows = []
    honest = featurizer.node_rows

    def node_rows(plan, nodes):
        rows.extend((plan.query, node) for node in nodes)
        return honest(plan, nodes)

    monkeypatch.setattr(featurizer, "node_rows", node_rows)
    return rows


def _trained(featurizer, **kwargs):
    model = TreeConvLatencyModel(featurizer, **kwargs)
    model._trained = True  # weights at their seed: scoring is all we need
    return model


def test_every_candidate_tree_equals_the_unmemoized_one(stats_db, monkeypatch):
    optimizer = Optimizer(stats_db)
    featurizer = PlanFeaturizer(stats_db, coster=optimizer.coster)
    model = _trained(featurizer, thompson=False)
    shared_nodes = 0
    for q in _queries(stats_db):
        candidates = _decision(optimizer, q)
        fresh = [plan_to_tree_arrays(c.plan, featurizer) for c in candidates]
        rows = _counting(featurizer, monkeypatch)
        model.scores(candidates)
        monkeypatch.undo()
        kept = [c.__dict__["_tree"][2] for c in candidates]
        assert all(_same_tree(a, b) for a, b in zip(kept, fresh))
        n_nodes = sum(c.plan.root.n_nodes for c in candidates)
        distinct = {(c.plan.query, n) for c in candidates for n in c.plan.walk()}
        assert len(rows) == len(set(rows)) == len(distinct) <= n_nodes
        shared_nodes += n_nodes - len(distinct)
    assert shared_nodes > 0, "the sweep must share nodes for this test to bite"


def test_a_memo_is_keyed_by_query_and_node(stats_db):
    """Two plans with one root over queries with other literals: the node
    is the same object, its rows are not."""
    optimizer = Optimizer(stats_db)
    featurizer = PlanFeaturizer(stats_db, coster=optimizer.coster)
    for q in _queries(stats_db):
        if q.predicates:
            break
    plan = optimizer.plan(q)
    other = Query(q.tables, q.joins, ())
    twin = Plan(other, plan.root)
    table = NodeTable(featurizer, [plan, twin])
    first = plan_to_tree_arrays(plan, featurizer, table=table)
    second = plan_to_tree_arrays(twin, featurizer, table=table)
    assert _same_tree(first, plan_to_tree_arrays(plan, featurizer))
    assert _same_tree(second, plan_to_tree_arrays(twin, featurizer))
    assert not np.array_equal(first[0], second[0])


def test_no_node_memo_survives_into_the_next_decision(stats_db, dial_optimizer):
    """Same query object, structurally equal nodes, a refit in between: the
    second decision's trees reflect the refit."""
    optimizer = dial_optimizer
    featurizer = PlanFeaturizer(stats_db, coster=optimizer.coster)
    model = _trained(featurizer, thompson=False)
    for q in _queries(stats_db, n=6):
        optimizer.estimator.turn(1.0)
        model.scores(_decision(optimizer, q))
        optimizer.estimator.turn(7.0)
        candidates = _decision(optimizer, q)
        model.scores(candidates)
        for c in candidates:
            fresh = plan_to_tree_arrays(c.plan, featurizer)
            assert _same_tree(c.__dict__["_tree"][2], fresh)


def test_observe_reuses_the_scored_tree(stats_db, dial_optimizer):
    optimizer = dial_optimizer
    featurizer = PlanFeaturizer(stats_db, coster=optimizer.coster)
    model = _trained(featurizer, thompson=False)
    q = _queries(stats_db)[1]
    candidates = _decision(optimizer, q)
    model.scores(candidates)
    model.observe(candidates[-1], 3.0)
    assert model._trees[-1] is candidates[-1].__dict__["_tree"][2]
    # Another featurizer, or the same one after a refit: featurized again.
    other = TreeConvLatencyModel(PlanFeaturizer(stats_db, coster=optimizer.coster))
    other.observe(candidates[-1], 3.0)
    assert other._trees[-1] is not model._trees[-1]
    optimizer.estimator.turn(5.0)
    model.observe(candidates[-1], 3.0)
    assert model._trees[-1] is not model._trees[-2]
    assert _same_tree(
        model._trees[-1], plan_to_tree_arrays(candidates[-1].plan, featurizer)
    )
    # A candidate no scoring saw is featurized as before.
    bare = CandidatePlan(candidates[0].plan, "default")
    model.observe(bare, 1.0)
    assert _same_tree(
        model._trees[-1], plan_to_tree_arrays(bare.plan, featurizer)
    )


# -- fingerprints do not see the decision's memos ----------------------------------------


def test_a_registered_model_whose_optimizer_swept_still_verifies(stats_db):
    optimizer = Optimizer(stats_db)
    bao = BaoOptimizer(optimizer, seed=0)  # untrained: a decision only sweeps
    registry = ModelRegistry(
        shared=(stats_db, optimizer.stats, optimizer.cache), telemetry=TelemetryBus()
    )
    version = registry.register(bao)
    for q in _queries(stats_db, n=8):
        bao.choose_plan(q)
        assert optimizer.plan(q) is Optimizer._last_sweep[2]
        assert registry.verify(version.version_id)
