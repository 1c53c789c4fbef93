"""Differential tests: one-pass plan execution vs the kept per-node path.

``ExecutionSimulator.execute`` counts every node of a plan in one
``CardinalityExecutor.plan_cardinalities`` pass (shared row sets, implicit
unit weights, dense-key group sums); ``tests/executor_reference.py`` keeps
the per-node loop and the sort-only kernels it replaced.  Counts must be
equal and costs / latencies bit-equal -- on generated and hand-built
stats-lite plans, across a data drift, past 2**53, and with each of the
oracle's executor-layer mutations installed (both paths then produce the
same *wrong* answer: the patch points are still what the executor
dispatches through).
"""

from __future__ import annotations

import pytest

import repro.engine.kernels as kernels
from repro.bench import apply_drift
from repro.engine import ExecutionSimulator
from repro.engine.plans import ScanMethod
from repro.engine.simulator import SimulatorConfig
from repro.optimizer import HintSet, Optimizer
from repro.oracle.fixtures import make_deep_chain
from repro.oracle.mutations import apply_mutation
from repro.pilotscope import PilotScopeConsole, SimulatedPostgreSQL
from repro.sql import (
    ColumnRef,
    Join,
    Op,
    OrPredicate,
    Predicate,
    Query,
    WorkloadGenerator,
)
from repro.sql.query import query_hash
from repro.storage import make_stats_lite
from tests.executor_reference import reference_execute, reference_simulator

#: arms that between them force every join method, seq-only and index-only scans
ARMS = (
    HintSet(),
    HintSet(enable_nested_loop=False, enable_merge_join=False),
    HintSet(enable_hash_join=False, enable_index_scan=False),
    HintSet(enable_merge_join=False, enable_seq_scan=False),
)

EXECUTOR_MUTATIONS = (
    "lookup_missing_counts_one",
    "materializer_drops_cycle_edge",
    "filter_drops_last_predicate",
    "between_evaluates_exclusive",
)


def _pred(table, column, op, value):
    return Predicate(ColumnRef(table, column), op, value)


def _join(lt, lc, rt, rc):
    return Join(ColumnRef(lt, lc), ColumnRef(rt, rc))


TRIANGLE = (
    _join("comments", "post_id", "posts", "id"),
    _join("comments", "user_id", "users", "id"),
    _join("posts", "owner_id", "users", "id"),
)


def hand_built_queries() -> list[Query]:
    """Shapes the generator does not promise: the triangle, IN / OR /
    BETWEEN filters, an empty result, unfiltered tables, five tables."""
    score = ColumnRef("posts", "score")
    return [
        Query(("comments", "posts", "users"), TRIANGLE, ()),
        Query(
            ("comments", "posts", "users"),
            TRIANGLE,
            (
                _pred("users", "reputation", Op.BETWEEN, (5.0, 30.0)),
                _pred("posts", "post_type", Op.IN, frozenset({0.0, 2.0})),
                _pred("comments", "score", Op.LE, 7.0),
            ),
        ),
        Query(
            ("badges", "comments", "posts", "users"),
            TRIANGLE + (_join("badges", "user_id", "users", "id"),),
            (_pred("badges", "class", Op.EQ, 1.0),),
        ),
        Query(
            ("posts", "users", "votes"),
            (_join("posts", "owner_id", "users", "id"), _join("votes", "post_id", "posts", "id")),
            (
                OrPredicate(score, (Predicate(score, Op.LT, 3.0), Predicate(score, Op.GT, 25.0))),
                _pred("votes", "vote_type", Op.IN, frozenset({1.0, 2.0, 9.0})),
            ),
        ),
        # empty result: no user has this reputation
        Query(
            ("badges", "users"),
            (_join("badges", "user_id", "users", "id"),),
            (_pred("users", "reputation", Op.GT, 10_000.0),),
        ),
        # five tables, most of them unfiltered
        Query(
            ("badges", "comments", "posts", "users", "votes"),
            (
                _join("posts", "owner_id", "users", "id"),
                _join("comments", "post_id", "posts", "id"),
                _join("votes", "post_id", "posts", "id"),
                _join("badges", "user_id", "users", "id"),
            ),
            (_pred("users", "upvotes", Op.BETWEEN, (10.0, 20.0)),),
        ),
        Query(("votes",), (), (_pred("votes", "bounty", Op.GE, 6.0), _pred("votes", "vote_type", Op.LT, 4.0))),
    ]


def plans_for(db, queries) -> list:
    optimizer = Optimizer(db)
    return [optimizer.plan(q, hints=arm) for q in queries for arm in ARMS]


def assert_same_execution(result, expected) -> None:
    assert result.node_cards == expected.node_cards
    assert list(result.node_cards) == list(expected.node_cards)  # pre-order, as before
    assert result.node_costs == expected.node_costs  # floats: bit-equal
    assert result.total_cost == expected.total_cost
    assert result.latency_ms == expected.latency_ms
    assert result.cardinality == expected.cardinality


def assert_paths_agree(db, plans, config=None) -> list[int]:
    """Run every plan on a fresh simulator of each kind; returns the counts."""
    simulator, reference = ExecutionSimulator(db, config), reference_simulator(db, config)
    counts = []
    for plan in plans:
        result = simulator.execute(plan)
        assert_same_execution(result, reference_execute(reference, plan))
        counts.append(result.cardinality)
    return counts


@pytest.fixture(scope="module")
def db():
    return make_stats_lite(scale=0.3, seed=0)


@pytest.fixture(scope="module")
def plans(db):
    generated = WorkloadGenerator(db, seed=11).workload(40, 2, 5) + WorkloadGenerator(
        db, seed=12
    ).workload(20, 1, 5, require_predicate=True)
    return plans_for(db, generated + hand_built_queries())


def test_one_pass_matches_per_node_reference(db, plans):
    # the plan set covers the shapes the differential claims ...
    queries = {p.query for p in plans}
    assert {q.n_tables for q in queries} == {1, 2, 3, 4, 5}
    assert any(len(q.joins) >= q.n_tables for q in queries)  # cyclic
    assert any(
        not q.predicates_on(t) for q in queries for t in q.tables
    )  # unfiltered tables
    ops = {p.op for q in queries for p in q.predicates}
    assert {Op.IN, Op.OR, Op.BETWEEN} <= ops
    scans = [s for p in plans for s in p.scan_nodes()]
    assert any(s.method is ScanMethod.INDEX and len(s.predicates) > 1 for s in scans)
    # ... and on every one of them the two paths agree
    counts = assert_paths_agree(db, plans)
    assert 0 in counts and max(counts) > 10_000


def test_one_pass_matches_reference_with_latency_noise(db, plans):
    assert_paths_agree(db, plans[::7], SimulatorConfig(noise_sigma=0.3, noise_seed=5))


def test_each_node_is_counted_once_and_filters_once_per_plan(db, plans, monkeypatch):
    import repro.engine.executor as executor_mod

    plan = max(plans, key=lambda p: (p.query.n_tables, len(p.query.predicates)))
    simulator = ExecutionSimulator(db)
    asked, filtered = [], []
    cardinality = simulator.executor.cardinality
    filtered_indices = executor_mod._filtered_indices
    monkeypatch.setattr(
        simulator.executor, "cardinality", lambda q: asked.append(q) or cardinality(q)
    )
    monkeypatch.setattr(
        executor_mod,
        "_filtered_indices",
        lambda db_, q, t: filtered.append(t) or filtered_indices(db_, q, t),
    )
    cards = simulator.executor.plan_cardinalities(plan)
    assert list(cards) == list(reversed(list(plan.walk())))  # children first
    assert len(asked) == plan.root.n_nodes
    assert sorted(filtered) == sorted(plan.query.tables), "one filter pass per base table"
    assert simulator.executor._plan_rows is None  # row sets do not outlive the pass
    # execute() adds only the index scans' fetched-rows probes
    del asked[:]
    ExecutionSimulator(db, executor=simulator.executor).execute(plan)
    index_probes = sum(
        s.method is ScanMethod.INDEX and bool(s.predicates) for s in plan.scan_nodes()
    )
    assert len(asked) == plan.root.n_nodes + index_probes


def test_memo_and_row_sets_drop_with_data_version():
    db = make_stats_lite(scale=0.3, seed=3)
    queries = WorkloadGenerator(db, seed=13).workload(12, 2, 4, require_predicate=True)
    plans = plans_for(db, queries + hand_built_queries()[:3])
    simulator = ExecutionSimulator(db)
    before = [simulator.execute(p).cardinality for p in plans]
    assert simulator.executor.cache_stats()["entries"] > 0
    apply_drift(db, fraction=0.3, seed=1)
    # same simulator, warm memo: every answer must be of the new data
    reference = reference_simulator(db)
    after = []
    for plan in plans:
        result = simulator.execute(plan)
        assert_same_execution(result, reference_execute(reference, plan))
        after.append(result.cardinality)
    assert after != before, "the drift changed no count: the test cannot see a stale memo"
    assert after == [ExecutionSimulator(db).execute(p).cardinality for p in plans]
    # a bare cardinality() call between passes syncs too
    apply_drift(db, fraction=0.2, seed=2)
    root = plans[0].query
    assert simulator.executor.cardinality(root) == reference.executor.cardinality(root)


def test_deep_chain_past_2_53_declines_the_dense_path(monkeypatch):
    # ten tables: the messages themselves, not just the root total, pass 2**53
    db, query, expected = make_deep_chain(10, seed=0)
    assert expected > 2**53
    plans = [Optimizer(db).plan(query, hints=arm) for arm in ARMS[:2]]
    outcomes = []
    dense = kernels._dense_grouped_sums

    def spy(keys, weights):
        result = dense(keys, weights)
        outcomes.append(result)
        return result

    monkeypatch.setattr(kernels, "_dense_grouped_sums", spy)
    counts = assert_paths_agree(db, plans)
    assert counts == [expected] * len(plans)
    taken = [r for r in outcomes if r is not None]
    assert taken and len(taken) < len(outcomes), "expected both paths on the chain"
    assert all(int(sums.max()) < 2**53 for _, sums in taken)


@pytest.mark.parametrize("name", EXECUTOR_MUTATIONS)
def test_mutated_patch_points_move_both_paths_alike(db, plans, name):
    subset = plans[::3]
    clean = assert_paths_agree(db, subset)
    with apply_mutation(name):
        mutated = assert_paths_agree(db, subset)
    assert mutated != clean, f"{name} changed no count: it is not dispatched through"


def test_float64_mutation_moves_both_paths_alike():
    db, query, expected = make_deep_chain(8, seed=0)
    plans = [Optimizer(db).plan(query, hints=arm) for arm in ARMS[:2]]
    with apply_mutation("tree_count_float64"):
        mutated = assert_paths_agree(db, plans)
    assert all(count != expected for count in mutated)


def test_console_renders_a_query_once(db, monkeypatch):
    console = PilotScopeConsole(SimulatedPostgreSQL(db))
    query = hand_built_queries()[1]
    renders = []
    to_sql = Query.to_sql
    monkeypatch.setattr(
        Query, "to_sql", lambda self: renders.append(self) or to_sql(self)
    )
    console.execute(query)
    digest = query_hash(query)  # what the serving trace keys the request by
    assert [q for q in renders if q is query] == [query]
    monkeypatch.undo()
    assert console.query_log[-1].sql == query.to_sql()
    assert digest == query_hash(Query(query.tables, query.joins, query.predicates))
