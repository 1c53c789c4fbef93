"""Tests for query templates and the parameterized plan cache.

Covers the template identity (:attr:`Query.template_key`, held to the
text key it replaced in ``tests/statistics_reference.py``), plan rebinding
(:func:`rebind_plan`), the :class:`PlanCache` LRU/invalidation semantics,
and -- the load-bearing property -- that a query served from a cached
plan produces *exactly* the count a cold planning and the independent
reference oracle produce, over generated parameterized workloads.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optimizer import Optimizer, PlanCache, rebind_plan
from repro.core.interfaces import estimator_cache_tag
from repro.oracle.planexec import PlanInterpreter
from repro.oracle.reference import reference_count
from repro.sql import ColumnRef, Join, Op, OrPredicate, Predicate, Query
from repro.sql.generator import WorkloadGenerator
from repro.sql.query import query_hash
from tests.statistics_reference import predicate_template, reference_template_key


def _q(*predicates):
    return Query(
        ("posts", "users"),
        (Join(ColumnRef("posts", "uid"), ColumnRef("users", "id")),),
        predicates,
    )


AGE = ColumnRef("users", "age")
SCORE = ColumnRef("posts", "score")


class TestPredicateTemplate:
    def test_scalar_ops(self):
        assert predicate_template(Predicate(AGE, Op.EQ, 3.0)) == "users.age = ?"
        assert predicate_template(Predicate(AGE, Op.GE, 3.0)) == "users.age >= ?"

    def test_between(self):
        pred = Predicate(AGE, Op.BETWEEN, (1.0, 4.0))
        assert predicate_template(pred) == "users.age BETWEEN ? AND ?"

    def test_in_preserves_arity(self):
        two = Predicate(AGE, Op.IN, frozenset({1.0, 2.0}))
        three = Predicate(AGE, Op.IN, frozenset({1.0, 2.0, 3.0}))
        assert predicate_template(two) == "users.age IN (?, ?)"
        assert predicate_template(three) == "users.age IN (?, ?, ?)"
        assert predicate_template(two) != predicate_template(three)

    def test_or_parts_sorted_as_templates(self):
        # Two bindings whose parts sort differently *by literal* must
        # still produce one template.
        a = OrPredicate(
            AGE, (Predicate(AGE, Op.EQ, 9.0), Predicate(AGE, Op.LE, 1.0))
        )
        b = OrPredicate(
            AGE, (Predicate(AGE, Op.EQ, 0.0), Predicate(AGE, Op.LE, 5.0))
        )
        assert predicate_template(a) == predicate_template(b)
        assert predicate_template(a) == "(users.age <= ? OR users.age = ?)"


class TestTemplateKey:
    def test_same_template_different_literals(self):
        a = _q(Predicate(AGE, Op.LE, 1.0))
        b = _q(Predicate(AGE, Op.LE, 4.0))
        assert a.template_key == b.template_key
        assert a != b
        assert query_hash(a) != query_hash(b)  # hash still binding-specific

    def test_binding_order_does_not_matter(self):
        # Predicates sort by their literal-bearing str, so two bindings of
        # one template can store predicates in different orders; the
        # template key must not depend on that.
        a = _q(Predicate(AGE, Op.EQ, 0.0), Predicate(AGE, Op.LE, 5.0))
        b = _q(Predicate(AGE, Op.EQ, 9.0), Predicate(AGE, Op.LE, 1.0))
        assert a.template_key == b.template_key
        # two IN lists of different arity on one column sort by their literals
        a = _q(Predicate(AGE, Op.IN, (1.0, 2.0)), Predicate(AGE, Op.IN, (3.0,)))
        b = _q(Predicate(AGE, Op.IN, (5.0, 6.0)), Predicate(AGE, Op.IN, (0.0,)))
        assert [len(p.value) for p in a.predicates] != [len(p.value) for p in b.predicates]
        assert a.template_key == b.template_key

    def test_different_ops_differ(self):
        a = _q(Predicate(AGE, Op.LE, 2.0))
        b = _q(Predicate(AGE, Op.GE, 2.0))
        assert a.template_key != b.template_key

    def test_different_columns_differ(self):
        a = _q(Predicate(AGE, Op.LE, 2.0))
        b = _q(Predicate(SCORE, Op.LE, 2.0))
        assert a.template_key != b.template_key

    def test_joins_part_of_template(self):
        with_join = _q()
        single = Query(("users",))
        assert with_join.template_key != single.template_key
        assert Join(ColumnRef("posts", "uid"), ColumnRef("users", "id")) in _leaves(
            with_join.template_key
        )

    def test_no_literals_leak(self):
        q = _q(
            Predicate(AGE, Op.BETWEEN, (13.0, 37.0)),
            Predicate(SCORE, Op.IN, frozenset({42.0})),
        )
        leaves = _leaves(q.template_key)
        assert not any(isinstance(leaf, float) for leaf in leaves)
        assert not {13, 37, 42} & {leaf for leaf in leaves if isinstance(leaf, int)}
        # the operators are in it, and the IN list's arity
        shapes = q.template_key[2]
        assert ("posts", "score", "in", 1) in shapes
        assert ("users", "age", "between", 0) in shapes

    def test_rebind_keeps_template(self, stats_db):
        gen = WorkloadGenerator(stats_db, seed=3)
        for _ in range(20):
            q = gen.random_query(1, 4, require_predicate=True)
            assert gen.rebind(q).template_key == q.template_key


def _leaves(key: tuple) -> list:
    """Every non-tuple member of a template key, however deep."""
    out = []
    for member in key:
        out.extend(_leaves(member) if isinstance(member, tuple) else [member])
    return out


@pytest.fixture(scope="module")
def key_optimizer(stats_db):
    return Optimizer(stats_db)


@given(seed=st.integers(0, 10_000), or_rate=st.sampled_from([0.0, 0.6]))
@settings(max_examples=25, deadline=None)
def test_tuple_key_identifies_what_the_text_key_does(stats_db, key_optimizer, seed, or_rate):
    """Over parameterized and ad-hoc queries -- OR, IN of several arities,
    BETWEEN, two predicates on one column -- two queries share a tuple key
    exactly when they share the text key it replaced; a rebinding keeps
    it, and a plan does not rebind across keys."""
    gen = WorkloadGenerator(stats_db, seed=seed, or_rate=or_rate)
    queries = (
        gen.parameterized_workload(3, 3, 1, 3)
        + gen.workload(6, 1, 3, require_predicate=True)
        + gen.rewrite_susceptible_workload(3)
    )
    for a in queries:
        for b in queries:
            same = a.template_key == b.template_key
            assert same == (reference_template_key(a) == reference_template_key(b))
    for q in queries:
        assert gen.rebind(q).template_key == q.template_key
    plan = key_optimizer.plan(queries[0])
    for q in queries[1:]:
        if q.template_key == plan.query.template_key:
            assert rebind_plan(plan, q).query == q
        else:
            with pytest.raises(ValueError, match="rebind"):
                rebind_plan(plan, q)


class TestRebindPlan:
    def _plans(self, stats_db):
        gen = WorkloadGenerator(stats_db, seed=5)
        template = gen.random_query(2, 3, require_predicate=True)
        binding = gen.rebind(template)
        opt = Optimizer(stats_db)
        return template, binding, opt.plan(template)

    def test_identity_for_same_query(self, stats_db):
        template, _, plan = self._plans(stats_db)
        assert rebind_plan(plan, template) is plan

    def test_rebind_substitutes_scan_predicates(self, stats_db):
        template, binding, plan = self._plans(stats_db)
        rebound = rebind_plan(plan, binding)
        assert rebound.query == binding
        for scan in rebound.scan_nodes():
            assert scan.predicates == binding.predicates_on(scan.table)

    def test_rebind_shares_join_structure(self, stats_db):
        template, binding, plan = self._plans(stats_db)
        rebound = rebind_plan(plan, binding)
        assert rebound.join_order() == plan.join_order()
        assert [j.method for j in rebound.join_nodes()] == [
            j.method for j in plan.join_nodes()
        ]
        assert [j.conditions for j in rebound.join_nodes()] == [
            j.conditions for j in plan.join_nodes()
        ]

    def test_template_mismatch_raises(self, stats_db):
        _, _, plan = self._plans(stats_db)
        other = Query(("users",), (), (Predicate(AGE, Op.LE, 1.0),))
        with pytest.raises(ValueError, match="rebind"):
            rebind_plan(plan, other)


class TestPlanCache:
    TAG = ("native", "est", 0)

    def _plan_fn(self, db):
        opt = Optimizer(db)
        return opt.plan

    def test_miss_then_hit(self, tiny_plan_db):
        db, template, binding = tiny_plan_db
        cache = PlanCache()
        plan_fn = self._plan_fn(db)
        _, hit1 = cache.get_or_plan(template, self.TAG, 0, plan_fn)
        plan2, hit2 = cache.get_or_plan(binding, self.TAG, 0, plan_fn)
        assert (hit1, hit2) == (False, True)
        assert plan2.query == binding
        assert cache.hit_rate == 0.5

    def test_plan_fn_not_called_on_hit(self, tiny_plan_db):
        db, template, binding = tiny_plan_db
        cache = PlanCache()
        calls = []
        plan_fn = self._plan_fn(db)

        def counting(q):
            calls.append(q)
            return plan_fn(q)

        cache.get_or_plan(template, self.TAG, 0, counting)
        cache.get_or_plan(binding, self.TAG, 0, counting)
        assert calls == [template]

    def test_tag_and_data_version_partition(self, tiny_plan_db):
        db, template, binding = tiny_plan_db
        cache = PlanCache()
        plan_fn = self._plan_fn(db)
        cache.get_or_plan(template, self.TAG, 0, plan_fn)
        _, hit_tag = cache.get_or_plan(binding, ("other", "est", 1), 0, plan_fn)
        _, hit_ver = cache.get_or_plan(binding, self.TAG, 1, plan_fn)
        assert not hit_tag and not hit_ver
        assert len(cache) == 3

    def test_lru_eviction(self, tiny_plan_db):
        db, template, binding = tiny_plan_db
        single = Query(("users",), (), (Predicate(AGE, Op.LE, 1.0),))
        cache = PlanCache(capacity=1)
        plan_fn = self._plan_fn(db)
        cache.get_or_plan(template, self.TAG, 0, plan_fn)
        cache.get_or_plan(single, self.TAG, 0, plan_fn)  # evicts template
        assert cache.evictions == 1
        _, hit = cache.get_or_plan(binding, self.TAG, 0, plan_fn)
        assert not hit

    def test_invalidate(self, tiny_plan_db):
        db, template, binding = tiny_plan_db
        cache = PlanCache()
        plan_fn = self._plan_fn(db)
        cache.get_or_plan(template, self.TAG, 0, plan_fn)
        cache.invalidate()
        assert len(cache) == 0
        assert cache.invalidations == 1
        _, hit = cache.get_or_plan(binding, self.TAG, 0, plan_fn)
        assert not hit
        # Counters survive the flush.
        assert cache.stats()["misses"] == 2

    def test_a_stage_change_invalidates_and_counts(self):
        from repro.serve import parameterized_scenario

        scenario = parameterized_scenario(scale=0.1, seed=11)
        scenario.run()
        deployment, cache = scenario.deployment, scenario.plan_cache
        before = cache.invalidations
        assert len(cache) > 0
        deployment.promote()
        assert len(cache) == 0
        assert cache.invalidations == before + 1
        counters = deployment.telemetry.snapshot()["counters"]
        assert counters["plan_cache.invalidations"] == cache.invalidations

    def test_stats_shape(self):
        stats = PlanCache().stats()
        assert set(stats) == {
            "entries",
            "hits",
            "misses",
            "evictions",
            "hit_rate",
            "invalidations",
        }

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            PlanCache(capacity=0)

    @pytest.fixture(scope="class")
    def tiny_plan_db(self):
        from repro.storage import Column, Database, JoinEdge, Table

        rng = np.random.default_rng(0)
        users = Table(
            "users",
            [
                Column("id", np.arange(12), is_key=True),
                Column("age", rng.integers(0, 5, 12)),
            ],
        )
        posts = Table(
            "posts",
            [
                Column("id", np.arange(20), is_key=True),
                Column("uid", rng.integers(0, 12, 20)),
                Column("score", rng.integers(0, 4, 20)),
            ],
        )
        db = Database(
            "tiny",
            [users, posts],
            [JoinEdge("posts", "uid", "users", "id")],
        )
        template = _q(Predicate(AGE, Op.LE, 2.0))
        binding = _q(Predicate(AGE, Op.LE, 4.0))
        return db, template, binding


class TestCachedPlanCorrectness:
    """Satellite property: for every query of a generated parameterized
    workload, executing the *cached, rebound* plan yields exactly the same
    count as a cold planning of that query -- and both equal the
    independent reference oracle.
    """

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cached_equals_cold_equals_reference(self, stats_db, seed):
        gen = WorkloadGenerator(stats_db, seed=seed)
        workload = gen.parameterized_workload(
            4, 3, min_tables=1, max_tables=3, require_predicate=True
        )
        opt = Optimizer(stats_db)
        cache = PlanCache()
        tag = estimator_cache_tag(opt.estimator)
        interp = PlanInterpreter(stats_db)
        hits = 0
        for q in workload:
            cached_plan, hit = cache.get_or_plan(
                q, tag, stats_db.data_version, opt.plan
            )
            hits += hit
            cold_plan = opt.plan(q)
            cached_n = interp.count(cached_plan)
            assert cached_n == interp.count(cold_plan)
            assert cached_n == reference_count(stats_db, q)
        # The workload genuinely exercised the hit path.
        assert hits >= len(workload) - 4


class TestServingDeterminism:
    """Same seed + same config => byte-identical telemetry exports with
    the plan cache on the serving path; and the cache must not change any
    served result relative to cache-off execution.
    """

    def _run(self):
        from repro.serve import parameterized_scenario

        scenario = parameterized_scenario(seed=11)
        scenario.run()
        return scenario

    def test_byte_identical_exports(self):
        a = self._run()
        b = self._run()
        assert a.deployment.telemetry.to_json() == b.deployment.telemetry.to_json()
        assert a.plan_cache.stats() == b.plan_cache.stats()

    def test_hit_rate_above_gate(self):
        scenario = self._run()
        assert scenario.plan_cache.hit_rate > 0.5
        snap = scenario.deployment.telemetry.snapshot()
        assert snap["gauges"]["plan_cache"]["hits"] == scenario.plan_cache.hits

    def test_cache_does_not_change_results(self, stats_db):
        """Console-level A/B: identical outcomes with and without cache."""
        from repro.pilotscope import PilotScopeConsole
        from repro.pilotscope.postgres_sim import SimulatedPostgreSQL

        queries = WorkloadGenerator(stats_db, seed=9).parameterized_workload(
            3, 4, min_tables=1, max_tables=3, require_predicate=True
        )

        def serve(plan_cache):
            console = PilotScopeConsole(
                SimulatedPostgreSQL(stats_db), plan_cache=plan_cache
            )
            return [console.execute(q) for q in queries]

        with_cache = serve(PlanCache())
        without = serve(None)
        # Counts must be bit-identical; latency may differ (a replayed
        # template plan is not always the plan a cold optimization of the
        # new binding would pick -- that is the trade the cache makes).
        assert [o.cardinality for o in with_cache] == [
            o.cardinality for o in without
        ]
        assert all(
            c.plan.query == w.plan.query
            for c, w in zip(with_cache, without)
        )
