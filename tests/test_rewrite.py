"""Tests for the learned query-rewrite subsystem (repro.rewrite).

Every rule is checked for exact result preservation on engineered
fixtures -- including the > 2**53 deep-chain database and empty-result
edges -- plus the predicate algebra, the values catalog's cache-safety
contract, the retrieval store's anti-pattern down-weighting, the
promotion state machine, and the serving integrations (OptimizationLoop,
DeploymentManager, PilotScope console).

Values relations attach to the live database, so every test that can
mutate its database builds its own (the conftest fixtures are shared and
must stay pristine).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import CardinalityExecutor, ExecutionSimulator
from repro.e2e.loop import OptimizationLoop
from repro.optimizer import Optimizer
from repro.optimizer.plancache import PlanCache
from repro.optimizer.statistics import DatabaseStats
from repro.oracle.fixtures import make_deep_chain
from repro.pilotscope.console import PilotScopeConsole
from repro.pilotscope.postgres_sim import SimulatedPostgreSQL
from repro.rewrite import (
    GoldExampleStore,
    PromotionLeaderboard,
    REWRITE_RULES,
    RewriteDriver,
    RewriteValidator,
    RewritingOptimizer,
    ValuesCatalog,
)
from repro.rewrite.rules import predicate_implies, predicates_disjoint
from repro.serve.deployment import DeploymentManager, Stage
from repro.sql import WorkloadGenerator, exact_count
from repro.sql.query import (
    ColumnRef,
    Join,
    Op,
    OrPredicate,
    Predicate,
    Query,
    query_hash,
)
from repro.storage import make_stats_lite


def fresh_db(scale: float = 0.15, seed: int = 0):
    return make_stats_lite(scale=scale, seed=seed)


def _count(db, query):
    n = exact_count(query, CardinalityExecutor(db))
    assert n is not None
    return n


def _catalog(db):
    """A values catalog keeping its own statistics of ``db`` in sync."""
    return ValuesCatalog(db, DatabaseStats.build(db))


def col(table, column):
    return ColumnRef(table, column)


# -- predicate algebra --------------------------------------------------------------


def test_predicates_disjoint_finite_and_intervals():
    c = col("t", "x")
    assert predicates_disjoint(
        Predicate(c, Op.EQ, 1.0), Predicate(c, Op.EQ, 2.0)
    )
    assert not predicates_disjoint(
        Predicate(c, Op.IN, (1.0, 5.0)), Predicate(c, Op.EQ, 5.0)
    )
    # touching intervals: disjoint only when at most one endpoint is closed
    assert predicates_disjoint(
        Predicate(c, Op.LT, 3.0), Predicate(c, Op.GE, 3.0)
    )
    assert not predicates_disjoint(
        Predicate(c, Op.LE, 3.0), Predicate(c, Op.GE, 3.0)
    )
    assert predicates_disjoint(
        Predicate(c, Op.BETWEEN, (0.0, 1.0)),
        Predicate(c, Op.BETWEEN, (2.0, 3.0)),
    )
    assert not predicates_disjoint(
        Predicate(c, Op.BETWEEN, (0.0, 2.0)),
        Predicate(c, Op.BETWEEN, (2.0, 3.0)),
    )


def test_predicate_implies_inclusivity():
    c = col("t", "x")
    assert predicate_implies(
        Predicate(c, Op.EQ, 2.0), Predicate(c, Op.BETWEEN, (0.0, 5.0))
    )
    assert predicate_implies(
        Predicate(c, Op.LE, 3.0), Predicate(c, Op.LE, 7.0)
    )
    assert not predicate_implies(
        Predicate(c, Op.LE, 7.0), Predicate(c, Op.LE, 3.0)
    )
    # strict inside closed at the same endpoint holds; the converse must not
    assert predicate_implies(
        Predicate(c, Op.LT, 3.0), Predicate(c, Op.LE, 3.0)
    )
    assert not predicate_implies(
        Predicate(c, Op.LE, 3.0), Predicate(c, Op.LT, 3.0)
    )
    assert not predicate_implies(
        Predicate(c, Op.BETWEEN, (0.0, 5.0)), Predicate(c, Op.IN, (0.0, 5.0))
    )


# -- per-rule result preservation ---------------------------------------------------


def _joined_query(db):
    """Two joined tables plus a range filter on one join column."""
    edge = db.joins[0]
    join = Join(
        ColumnRef(edge.left_table, edge.left_column),
        ColumnRef(edge.right_table, edge.right_column),
    )
    lo = float(np.quantile(db.table(edge.left_table).values(edge.left_column), 0.2))
    pred = Predicate(col(edge.left_table, edge.left_column), Op.GE, lo)
    return Query((edge.left_table, edge.right_table), (join,), (pred,))


def test_predicate_pushdown_preserves_count():
    db = fresh_db()
    query = _joined_query(db)
    candidate = REWRITE_RULES["predicate_pushdown"].apply(db, query, catalog=_catalog(db))
    assert candidate is not None and candidate.servable
    assert len(candidate.rewritten.predicates) > len(query.predicates)
    assert _count(db, candidate.rewritten) == _count(db, query)


def test_pushdown_skips_when_nothing_to_push():
    db = fresh_db()
    t = db.joins[0].left_table
    no_joins = Query((t,), (), (Predicate(col(t, "id"), Op.GE, 1.0),))
    assert REWRITE_RULES["predicate_pushdown"].apply(db, no_joins, catalog=_catalog(db)) is None


def test_or_to_union_branches_sum_exactly():
    db = fresh_db()
    t = "users"
    c = col(t, "id")
    disjunct = OrPredicate(
        c,
        (
            Predicate(c, Op.BETWEEN, (0.0, 10.0)),
            Predicate(c, Op.BETWEEN, (20.0, 30.0)),
            Predicate(c, Op.GE, 40.0),
        ),
    )
    query = Query((t,), (), (disjunct,))
    candidate = REWRITE_RULES["or_to_union"].apply(db, query, catalog=_catalog(db))
    assert candidate is not None and not candidate.servable
    assert len(candidate.queries) == 3
    total = sum(_count(db, branch) for branch in candidate.queries)
    assert total == _count(db, query)
    with pytest.raises(ValueError):
        candidate.rewritten  # union candidates are not single-plan servable


def test_or_to_union_refuses_overlapping_parts():
    db = fresh_db()
    t = "users"
    c = col(t, "id")
    overlapping = OrPredicate(
        c,
        (
            Predicate(c, Op.BETWEEN, (0.0, 20.0)),
            Predicate(c, Op.BETWEEN, (10.0, 30.0)),
        ),
    )
    query = Query((t,), (), (overlapping,))
    assert REWRITE_RULES["or_to_union"].apply(db, query, catalog=_catalog(db)) is None


def test_drop_redundant_subsumed_and_duplicate():
    db = fresh_db()
    t = "users"
    c = col(t, "id")
    query = Query(
        (t,),
        (),
        (
            Predicate(c, Op.LE, 50.0),
            Predicate(c, Op.LE, 200.0),  # subsumed by <= 50
            Predicate(c, Op.GE, 5.0),
        ),
    )
    candidate = REWRITE_RULES["drop_redundant"].apply(db, query, catalog=_catalog(db))
    assert candidate is not None
    assert len(candidate.rewritten.predicates) == 2
    assert Predicate(c, Op.LE, 200.0) not in candidate.rewritten.predicates
    assert _count(db, candidate.rewritten) == _count(db, query)


def test_merge_ranges_closed_only():
    db = fresh_db()
    t = "users"
    c = col(t, "id")
    query = Query(
        (t,), (), (Predicate(c, Op.GE, 5.0), Predicate(c, Op.LE, 60.0))
    )
    candidate = REWRITE_RULES["merge_ranges"].apply(db, query, catalog=_catalog(db))
    assert candidate is not None
    (merged,) = candidate.rewritten.predicates
    assert merged.op is Op.BETWEEN and merged.value == (5.0, 60.0)
    assert _count(db, candidate.rewritten) == _count(db, query)
    # a strict bound never folds into the inclusive BETWEEN
    strict = Query(
        (t,), (), (Predicate(c, Op.GE, 5.0), Predicate(c, Op.LT, 60.0))
    )
    assert REWRITE_RULES["merge_ranges"].apply(db, strict, catalog=_catalog(db)) is None


def test_in_to_join_preserves_count_and_registers_relation():
    db = fresh_db()
    optimizer = Optimizer(db)
    catalog = ValuesCatalog(db, stats=optimizer.stats)
    t = "users"
    c = col(t, "id")
    literals = tuple(float(v) for v in range(0, 24, 3))
    query = Query((t,), (), (Predicate(c, Op.IN, literals),))
    before = _count(db, query)
    version = db.data_version
    candidate = REWRITE_RULES["in_to_join"].apply(db, query, catalog=catalog)
    assert candidate is not None and candidate.servable
    (vals_name,) = candidate.values_tables
    assert vals_name in db.tables and vals_name.startswith("vals_")
    assert _count(db, candidate.rewritten) == before
    # attaching a relation must not invalidate caches or drift detection
    assert db.data_version == version
    # the planner can cost the new relation immediately
    optimizer.plan(candidate.rewritten)
    # re-applying reuses the content-addressed relation
    again = REWRITE_RULES["in_to_join"].apply(db, query, catalog=catalog)
    assert again.values_tables == (vals_name,)
    assert catalog.attachments == 1 and catalog.reuses == 1


def test_values_catalog_drops_non_integral_literals():
    db = fresh_db()
    catalog = _catalog(db)
    t = "users"
    c = col(t, "id")
    assert db.table(t).values("id").dtype.kind == "i"
    attached = catalog.attach(c, (1.0, 2.0, 2.5))
    assert attached is not None
    name, _ = attached
    assert db.table(name).values("v").tolist() == [1, 2]
    # all-non-integral on an integer column can never match anything
    assert catalog.attach(c, (0.5, 1.5)) is None


def test_rules_never_mutate_the_input_query():
    db = fresh_db()
    query = _joined_query(db)
    frozen = query_hash(query)
    for rule in REWRITE_RULES.values():
        rule.apply(db, query, catalog=_catalog(db))
    assert query_hash(query) == frozen


# -- extreme and empty fixtures -----------------------------------------------------


def test_pushdown_exact_past_float64_on_deep_chain():
    db, query, expected = make_deep_chain()
    assert expected > 2**53
    filtered = Query(
        query.tables,
        query.joins,
        (Predicate(col("c0", "key"), Op.LE, 4.0),),
    )
    candidate = REWRITE_RULES["predicate_pushdown"].apply(db, filtered, catalog=_catalog(db))
    assert candidate is not None
    # key <= 4 keeps every key group, so the rewritten chain must
    # reproduce the closed-form python-int count exactly
    assert len(candidate.rewritten.predicates) == len(query.tables)
    assert _count(db, candidate.rewritten) == expected


def test_in_to_join_exact_past_float64_on_deep_chain():
    db, query, expected = make_deep_chain()
    catalog = _catalog(db)
    filtered = Query(
        query.tables,
        query.joins,
        (Predicate(col("c0", "key"), Op.IN, (0.0, 1.0, 2.0, 3.0, 4.0)),),
    )
    candidate = REWRITE_RULES["in_to_join"].apply(db, filtered, catalog=catalog)
    assert candidate is not None
    assert _count(db, candidate.rewritten) == expected


def test_rules_preserve_empty_results():
    db = fresh_db()
    t = "users"
    c = col(t, "id")
    empty = Predicate(c, Op.EQ, -12345.0)
    query = Query(
        (t,),
        (),
        (empty, Predicate(c, Op.GE, 5.0), Predicate(c, Op.LE, 60.0)),
    )
    assert _count(db, query) == 0
    merged = REWRITE_RULES["merge_ranges"].apply(db, query, catalog=_catalog(db))
    assert merged is not None and _count(db, merged.rewritten) == 0
    validator = RewriteValidator(db)
    assert validator.validate(merged).outcome.ok


# -- identity, caching --------------------------------------------------------------


def test_rewrite_changes_query_hash_and_template_key():
    db = fresh_db()
    query = _joined_query(db)
    rewritten = REWRITE_RULES["predicate_pushdown"].apply(db, query, catalog=_catalog(db)).rewritten
    assert query_hash(rewritten) != query_hash(query)
    assert rewritten.template_key != query.template_key


def test_plan_cache_never_collides_original_with_rewrite():
    db = fresh_db()
    optimizer = Optimizer(db)
    query = _joined_query(db)
    rewritten = REWRITE_RULES["predicate_pushdown"].apply(db, query, catalog=_catalog(db)).rewritten
    cache = PlanCache()
    tag = ("test",)
    _, hit_a = cache.get_or_plan(query, tag, db.data_version, optimizer.plan)
    _, hit_b = cache.get_or_plan(rewritten, tag, db.data_version, optimizer.plan)
    assert not hit_a and not hit_b  # distinct templates -> distinct entries
    assert cache.stats()["entries"] == 2


# -- retrieval store ----------------------------------------------------------------


def test_store_cold_start_keeps_all_weights_at_one():
    db = fresh_db()
    store = GoldExampleStore(db)
    q = _joined_query(db)
    assert store.cluster_of(q) == -1
    weights = store.rule_weights(q, list(REWRITE_RULES))
    assert all(w == 1.0 for w in weights.values())


def test_store_anti_patterns_downweight_similar_queries():
    db = fresh_db()
    store = GoldExampleStore(db, seed=0)
    q = _joined_query(db)
    store.record_anti(q, "or_to_union", 0.5)
    store.record_anti(q, "or_to_union", 0.4)
    store.record_gold(q, "predicate_pushdown", 1.8)
    assert store.fit()
    weights = store.rule_weights(q, list(REWRITE_RULES))
    assert weights["or_to_union"] < 0.5  # below the selection cutoff
    assert weights["predicate_pushdown"] > 1.0
    assert weights["merge_ranges"] == 1.0
    # the floor keeps heavily-penalized rules non-negative
    for _ in range(10):
        store.record_anti(q, "or_to_union", 0.5)
    store.fit()
    assert store.rule_weights(q, list(REWRITE_RULES))["or_to_union"] == 0.05


# -- promotion leaderboard ----------------------------------------------------------


def _leaderboard(db):
    return PromotionLeaderboard(db, store=GoldExampleStore(db, seed=0))


def test_leaderboard_state_machine_and_idempotence():
    db = fresh_db()
    lb = _leaderboard(db)
    query = _joined_query(db)
    entries = lb.submit(query)
    assert entries
    statuses = {e.status for e in entries}
    assert statuses <= {"promoted", "demoted", "rejected", "skipped"}
    assert lb.counters["mismatches"] == 0
    snapshot = lb.counters.copy()
    assert lb.submit(query) == entries  # idempotent: cached verdicts
    assert lb.counters == snapshot


def test_leaderboard_promotes_and_serves_best_rewrite():
    db = fresh_db()
    lb = _leaderboard(db)
    workload = WorkloadGenerator(db, seed=11).rewrite_susceptible_workload(12)
    lb.submit_workload(workload)
    assert lb.counters["promoted"] > 0
    assert lb.geomean_promoted() >= lb.promote_threshold
    served = [q for q in workload if lb.promoted_for(q) is not None]
    assert served
    candidate, entry = lb.promoted_for(served[0])
    assert entry.status == "promoted" and candidate.servable
    assert entry.speedup >= lb.promote_threshold


def test_leaderboard_stale_promotions_invalidate_on_data_drift():
    db = fresh_db()
    lb = _leaderboard(db)
    workload = WorkloadGenerator(db, seed=11).rewrite_susceptible_workload(12)
    lb.submit_workload(workload)
    query = next(q for q in workload if lb.promoted_for(q) is not None)
    table = db.table(query.tables[0])
    table.append_rows(
        {name: np.array([table.values(name).max() + 1]) for name in table.columns}
    )
    assert lb.promoted_for(query) is None
    assert lb.counters["stale_invalidations"] == 1


def test_leaderboard_snapshot_deterministic_across_processes():
    exports = []
    for _ in range(2):
        db = fresh_db()
        store = GoldExampleStore(db, seed=0)
        lb = PromotionLeaderboard(db, store=store)
        workload = WorkloadGenerator(db, seed=7).rewrite_susceptible_workload(10)
        lb.submit_workload(workload)
        exports.append((lb.to_json(), store.export()))
    assert exports[0] == exports[1]


# -- serving integrations -----------------------------------------------------------


def test_rewriting_optimizer_in_optimization_loop():
    db = fresh_db()
    lb = _leaderboard(db)
    workload = WorkloadGenerator(db, seed=11).rewrite_susceptible_workload(12)
    rewriter = RewritingOptimizer(lb)
    loop = OptimizationLoop(
        rewriter, ExecutionSimulator(db, executor=lb.executor), lb.optimizer
    )
    results = loop.run(workload)
    assert rewriter.rewrites_served > 0
    assert lb.counters["served"] == rewriter.rewrites_served
    # non-rewritten queries serve the native plan itself: no regression
    assert min(r.speedup for r in results) >= 1.0
    rewritten = [r for r in results if r.plan_source.startswith("rewrite:")]
    assert all(r.speedup >= lb.promote_threshold for r in rewritten)


def test_deployment_manager_shadow_then_live():
    db = fresh_db()
    lb = _leaderboard(db)
    workload = WorkloadGenerator(db, seed=11).rewrite_susceptible_workload(12)
    lb.submit_workload(workload)
    deployment = DeploymentManager(
        RewritingOptimizer(lb),
        lb.optimizer,
        ExecutionSimulator(db, executor=lb.executor),
    )
    shadow = [deployment.serve(q) for q in workload]
    assert all(not d.served_learned for d in shadow)
    assert all(d.plan_source == "native" for d in shadow)
    assert deployment.promote() is Stage.CANARY
    assert deployment.promote() is Stage.LIVE
    live = [deployment.serve(q) for q in workload]
    sources = {d.plan_source for d in live if d.served_learned}
    assert any(s.startswith("rewrite:") for s in sources)
    assert deployment.stage is Stage.LIVE  # no rollback on the way


def test_rewrite_driver_via_console():
    db = fresh_db()
    interactor = SimulatedPostgreSQL(db)
    lb = _leaderboard(db)
    workload = WorkloadGenerator(db, seed=11).rewrite_susceptible_workload(8)
    console = PilotScopeConsole(interactor)
    driver = RewriteDriver(lb)
    console.register_driver(driver)
    console.start_driver("rewrite")
    for query in workload:
        outcome = console.execute(query)
        assert outcome.cardinality == _count(db, query)
    assert driver.rewrites_served > 0


# -- compat + workload shapes -------------------------------------------------------


def test_metamorphic_transforms_compat_alias():
    from repro.oracle.metamorphic import TRANSFORMS
    from repro.sql import TRANSFORM_REGISTRY

    assert set(TRANSFORMS) == set(TRANSFORM_REGISTRY)
    for name, (fn, preserves) in TRANSFORMS.items():
        assert fn is TRANSFORM_REGISTRY[name].fn
        assert preserves == TRANSFORM_REGISTRY[name].preserves_query_hash


def test_rewrite_susceptible_workload_seeded_and_shaped():
    db = fresh_db()
    a = WorkloadGenerator(db, seed=5).rewrite_susceptible_workload(15)
    b = WorkloadGenerator(db, seed=5).rewrite_susceptible_workload(15)
    assert [query_hash(q) for q in a] == [query_hash(q) for q in b]
    assert all(q.predicates for q in a)
    # the workload must exercise every rule at least once
    applied = {
        name
        for q in a
        for name, rule in REWRITE_RULES.items()
        if rule.apply(db, q, catalog=_catalog(db)) is not None
    }
    assert applied == set(REWRITE_RULES)
