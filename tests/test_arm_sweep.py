"""The arm-sweep DP kernel against the per-arm loop it replaced.

``enumerate_dp_arms`` plans every hint set of a list in one DP pass;
``tests/planner_reference.py`` keeps the old one-DP-per-arm loop.  The
contract is plan *identity*: dataclass ``==`` on the :class:`Plan`, arm
for arm, ties included -- not just an equal signature or an equal cost.
"""

import json
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cardest.bounds import MCVJoinBoundEstimator
from repro.core.interfaces import CardinalityEstimator
from repro.e2e import BaoOptimizer
from repro.engine.plans import ScanMethod, ScanNode
from repro.faults.resilience import CircuitBreaker, FallbackEstimator
from repro.optimizer import HintSet, Optimizer
from repro.optimizer import planner
from repro.optimizer.cardcache import CardinalityCache
from repro.optimizer.cost import PlanCoster
from repro.optimizer.planner import enumerate_dp, enumerate_dp_arms
from repro.optimizer.traditional import TraditionalCardinalityEstimator
from repro.sql import Query, WorkloadGenerator
from repro.serve.telemetry import TelemetryBus
from repro.sql.joingraph import join_graph
from tests.planner_reference import reference_enumerate_dp, reference_plan_arms


def _valid_hint_sets() -> list[HintSet]:
    out = []
    for flags in product((True, False), repeat=5):
        try:
            out.append(HintSet(*flags))
        except ValueError:
            pass
    return out


ALL_HINT_SETS = _valid_hint_sets()


def _queries(db, seed: int, n: int) -> list[Query]:
    gen = WorkloadGenerator(db, seed=seed)
    return gen.workload(n, 1, 6, require_predicate=True) + gen.workload(
        n, 1, 6, require_predicate=False
    )


@pytest.fixture(scope="module")
def sweep_cases(stats_optimizer, imdb_optimizer):
    """``(coster, query)``: 1-6 tables, with and without predicates;
    stats_lite joins close cycles, imdb_lite reaches six tables."""
    return [
        (opt.coster, q)
        for opt, seed in ((stats_optimizer, 31), (imdb_optimizer, 32))
        for q in _queries(opt.db, seed, 20)
    ]


@pytest.fixture(scope="module")
def risk_optimizer(stats_db):
    return Optimizer(stats_db, bound_estimator=MCVJoinBoundEstimator(stats_db))


def test_there_are_21_valid_hint_sets():
    assert len(ALL_HINT_SETS) == 21
    assert set(HintSet.bao_arms()) <= set(ALL_HINT_SETS)


def test_workload_covers_the_shapes(sweep_cases):
    queries = [q for _, q in sweep_cases]
    assert {q.n_tables for q in queries} == {1, 2, 3, 4, 5, 6}
    assert any(len(q.joins) >= q.n_tables for q in queries), "need a cyclic join"
    assert any(
        not q.predicates_on(t) for q in queries for t in q.tables
    ), "need predicate-less tables for the index-only fallback"


@pytest.mark.parametrize("left_deep_only", [False, True])
def test_bao_arms_match_reference(sweep_cases, left_deep_only):
    arms = HintSet.bao_arms()
    for coster, q in sweep_cases:
        assert enumerate_dp_arms(
            q, coster, arms, left_deep_only=left_deep_only
        ) == reference_plan_arms(q, coster, arms, left_deep_only=left_deep_only)


@pytest.mark.parametrize("left_deep_only", [False, True])
def test_every_valid_hint_set_matches_reference(sweep_cases, left_deep_only):
    for coster, q in sweep_cases[::3]:
        assert enumerate_dp_arms(
            q, coster, ALL_HINT_SETS, left_deep_only=left_deep_only
        ) == reference_plan_arms(
            q, coster, ALL_HINT_SETS, left_deep_only=left_deep_only
        )


@given(
    arms=st.lists(st.sampled_from(ALL_HINT_SETS), min_size=1, max_size=8),
    seed=st.integers(0, 2000),
    left_deep_only=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_sampled_arm_lists_match_reference(
    stats_db, stats_optimizer, arms, seed, left_deep_only
):
    """Any arm list -- a single arm, duplicates, any order -- on any query."""
    q = WorkloadGenerator(stats_db, seed=seed).random_query(1, 5)
    coster = stats_optimizer.coster
    plans = enumerate_dp_arms(q, coster, arms, left_deep_only=left_deep_only)
    assert plans == reference_plan_arms(
        q, coster, arms, left_deep_only=left_deep_only
    )
    for i, j in product(range(len(arms)), repeat=2):
        if arms[i] == arms[j]:
            assert plans[i] is plans[j]


def test_index_only_arm_falls_back_to_seq_without_predicates(stats_db, stats_optimizer):
    q = next(
        q
        for q in WorkloadGenerator(stats_db, seed=32).workload(
            40, 2, 3, require_predicate=False
        )
        if any(not q.predicates_on(t) for t in q.tables)
    )
    bare = [t for t in q.tables if not q.predicates_on(t)]
    index_only = HintSet(enable_seq_scan=False)
    (plan,) = enumerate_dp_arms(q, stats_optimizer.coster, [index_only])
    assert plan == reference_enumerate_dp(q, stats_optimizer.coster, index_only)
    methods = {s.table: s.method for s in plan.scan_nodes()}
    assert all(methods[t] is ScanMethod.SEQ for t in bare)
    assert all(
        methods[t] is ScanMethod.INDEX for t in q.tables if t not in bare
    )


@pytest.mark.parametrize(
    "risk, risk_lambda",
    [("worst_case", None), ("blended", 0.0), ("blended", 0.3)],
)
def test_risk_costers_match_reference(risk_optimizer, risk, risk_lambda):
    arms = HintSet.bao_arms()
    coster = risk_optimizer._planning_coster(risk, risk_lambda)
    for q in _queries(risk_optimizer.db, 34, 12):
        assert risk_optimizer.plan_arms(
            q, arms, risk=risk, risk_lambda=risk_lambda
        ) == reference_plan_arms(q, coster, arms)


def test_optimizer_plan_is_the_one_arm_case(stats_optimizer):
    coster = stats_optimizer.coster
    for q in _queries(stats_optimizer.db, 35, 10):
        for arm in (None, HintSet(enable_hash_join=False)):
            assert stats_optimizer.plan(q, hints=arm) == reference_enumerate_dp(
                q, coster, arm
            )
            assert stats_optimizer.plan(
                q, hints=arm, algorithm="left_deep"
            ) == reference_enumerate_dp(q, coster, arm, left_deep_only=True)
        assert enumerate_dp(q, coster) == reference_enumerate_dp(q, coster)


def test_equal_plans_are_the_identical_object(sweep_cases):
    arms = HintSet.bao_arms()
    shared = 0
    for coster, q in sweep_cases:
        plans = enumerate_dp_arms(q, coster, arms)
        for i, j in product(range(len(arms)), repeat=2):
            assert (plans[i] == plans[j]) == (plans[i] is plans[j])
        shared += len(arms) - len({id(p) for p in plans})
    assert shared > 0  # the 12 arms do collapse on this workload


def test_disconnected_query_is_rejected(stats_db, stats_optimizer):
    t1, t2 = stats_db.table_names[:2]
    with pytest.raises(ValueError, match="no connected plan"):
        enumerate_dp_arms(
            Query((t1, t2)), stats_optimizer.coster, HintSet.bao_arms()
        )
    with pytest.raises(ValueError, match="at least one hint set"):
        enumerate_dp_arms(Query((t1,)), stats_optimizer.coster, [])


def test_choose_plan_runs_the_kernel_once(stats_db, monkeypatch):
    optimizer = Optimizer(stats_db)
    bao = BaoOptimizer(optimizer)
    calls = []
    kernel = planner.enumerate_dp_arms

    def counting(query, coster, arms, **kwargs):
        calls.append(len(arms))
        return kernel(query, coster, arms, **kwargs)

    monkeypatch.setattr(planner, "enumerate_dp_arms", counting)
    q = WorkloadGenerator(stats_db, seed=33).random_query(3, 4)
    chosen = bao.choose_plan(q)
    assert calls == [12]
    assert chosen.plan in reference_plan_arms(
        q, optimizer.coster, HintSet.bao_arms()
    )


# -- cache traffic: the sweep keeps the cardinality cache's counters --------------------

#: hits, misses and entries after each planning of ``planning_traffic``, recorded
#: from the kernel that looked each index scan up through a fresh ``Query`` and
#: took the cache tag per lookup
TRAFFIC = Path(__file__).with_name("planning_traffic.json")

TRAFFIC_ARMS = {"one": [HintSet()], "bao": HintSet.bao_arms()}
TRAFFIC_RISKS = {
    "expected": ("expected", None),
    "worst": ("worst_case", None),
    "blend": ("blended", 0.3),
}


def planning_traffic(optimizer, arms, risk, risk_lambda):
    """``(plans, counters)``: ``optimizer`` sweeps ``arms`` over generated
    1-5-table queries, with and without predicates, each planned twice in a
    row (the second time from a warm cache), and ``counters`` holds its
    cache's ``[hits, misses, entries]`` after each planning."""
    gen = WorkloadGenerator(optimizer.db, seed=36)
    queries = gen.workload(12, 1, 5, require_predicate=True) + gen.workload(
        6, 1, 5, require_predicate=False
    )
    plans, counters = [], []
    for q in (q for q in queries for _ in range(2)):
        plans.append(optimizer.plan_arms(q, arms, risk=risk, risk_lambda=risk_lambda))
        stats = optimizer.cache_stats()
        counters.append([stats["hits"], stats["misses"], stats["entries"]])
    return plans, counters


def _bounded(db):
    return Optimizer(db, bound_estimator=MCVJoinBoundEstimator(db))


class _Flaky(CardinalityEstimator):
    """The histogram estimator, raising on every seventh call."""

    def __init__(self, db):
        self.inner = TraditionalCardinalityEstimator(db)
        self.calls = 0

    def estimate(self, query):
        self.calls += 1
        if self.calls % 7 == 0:
            raise RuntimeError("flaky")
        return self.inner.estimate(query)


def _breaking(db):
    """An optimizer whose estimator's breaker flips within plannings: it
    trips on each failure and half-opens on the next call, and every flip
    moves the estimator's cache tag."""
    breaker = CircuitBreaker(failure_threshold=1, cooldown_ms=0.0)
    estimator = FallbackEstimator(
        _Flaky(db), TraditionalCardinalityEstimator(db), breaker=breaker, telemetry=TelemetryBus()
    )
    return Optimizer(db, estimator=estimator)


@pytest.mark.parametrize("risk_key", list(TRAFFIC_RISKS))
@pytest.mark.parametrize("arms_key", list(TRAFFIC_ARMS))
def test_planning_keeps_the_cache_traffic(stats_db, arms_key, risk_key):
    """Each planning's hits, misses and entries equal the recorded ones --
    the per-request ``cache_hits`` / ``cache_misses`` of the served traces
    -- and its plans equal the per-arm reference's."""
    arms = TRAFFIC_ARMS[arms_key]
    risk, risk_lambda = TRAFFIC_RISKS[risk_key]
    plans, counters = planning_traffic(_bounded(stats_db), arms, risk, risk_lambda)
    assert counters == json.loads(TRAFFIC.read_text())[f"{arms_key}/{risk_key}"]
    coster = _bounded(stats_db)._planning_coster(risk, risk_lambda)
    assert {swept[0].query.n_tables for swept in plans} == {1, 2, 3, 4, 5}
    for swept in plans:
        assert swept == reference_plan_arms(swept[0].query, coster, arms)


@pytest.mark.parametrize("arms_key", list(TRAFFIC_ARMS))
def test_a_breaker_flipping_mid_planning_keeps_the_cache_traffic(stats_db, arms_key):
    """An estimate that moves its estimator's tag moves every later lookup
    of the same planning to the new tag, as a tag taken per lookup did."""
    optimizer = _breaking(stats_db)
    plans, counters = planning_traffic(optimizer, TRAFFIC_ARMS[arms_key], "expected", None)
    recorded = json.loads(TRAFFIC.read_text())[f"{arms_key}/breaker"]
    assert counters == recorded["counters"]
    assert [[p.signature() for p in swept] for swept in plans] == recorded["plans"]
    assert optimizer.estimator.breaker.epoch > 0


class _Moving(CardinalityEstimator):
    """The histogram estimator with a tag every estimate moves, as a
    breaker flip moves a wrapper's."""

    def __init__(self, db):
        self.inner = TraditionalCardinalityEstimator(db)
        self.estimates_version = 0

    def estimate(self, query):
        self.estimates_version += 1
        return self.inner.estimate(query)


def test_the_planning_tag_follows_an_estimate_that_moves_it(stats_db):
    """After each estimator call a tagged call makes, the planning's tag is
    what a fresh ``cache_tag()`` gives; lookups before it keyed on the old."""
    coster = PlanCoster(stats_db, _Moving(stats_db), cache=CardinalityCache())
    q = next(
        q
        for q in WorkloadGenerator(stats_db, seed=37).workload(40, 2, 3, require_predicate=True)
        if any(len(q.predicates_on(t)) >= 2 for t in q.tables)
    )
    tag = coster.planning_tag()
    first = tag.value
    coster.subquery_cardinalities(q, join_graph(q).subsets, tag)
    assert tag.value == coster.cache_tag() != first
    table = next(t for t in q.tables if len(q.predicates_on(t)) >= 2)
    node = ScanNode(table=table, method=ScanMethod.INDEX, predicates=q.predicates_on(table))
    batched = tag.value
    coster.tagged_scan_cost(node, tag)
    assert tag.value == coster.cache_tag() != batched
    assert coster.cache.peek(batched, Query((table,), (), (node.predicates[0],))) is not None
