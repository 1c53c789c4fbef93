"""Differential tests: one-pass plan execution vs the kept per-node path.

``ExecutionSimulator.execute`` counts every node of a plan in one
``CardinalityExecutor.plan_cardinalities`` pass (shared row sets, implicit
unit weights, direct-address messages); ``tests/executor_reference.py``
keeps the per-node loop and the sort-only kernels it replaced.  Counts
must be equal and costs / latencies bit-equal -- on generated and
hand-built stats-lite plans and plans rebound by the plan cache (one-
predicate index scans among them, and a pass that finds every join node in
the memo), across a data drift, past 2**53, and with
each of the oracle's executor-layer mutations installed (both paths then
produce the same *wrong* answer: the patch points are still what the
executor dispatches through, on the direct-address path too).  A pass
materializes each cyclic core once, and nothing it builds per node --
sub-queries, their memos, core materializations -- outlives it.
"""

from __future__ import annotations

import enum
import gc
import types

import numpy as np
import pytest

import repro.engine.executor as executor_mod
from repro.bench import apply_drift
from repro.engine import CardinalityExecutor, ExecutionSimulator
from repro.engine.kernels import KeyIndexCache
from repro.engine.plans import JoinNode, ScanMethod, ScanNode
from repro.engine.simulator import SimulatorConfig
from repro.optimizer import HintSet, Optimizer, PlanCache
from repro.oracle.fixtures import make_deep_chain
from repro.oracle.mutations import apply_mutation
from repro.oracle.planexec import PlanInterpreter
from repro.oracle.reference import reference_count
from repro.pilotscope import PilotScopeConsole, SimulatedPostgreSQL
from repro.serve.runtime import ConsoleBackend
from repro.sql import (
    ColumnRef,
    Join,
    Op,
    OrPredicate,
    Predicate,
    Query,
    WorkloadGenerator,
)
from repro.sql.joingraph import join_graph
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


def cached_plans(db) -> list:
    """Plans served through ``Optimizer.plan_cached``: each template's first
    binding is planned and the others are rebound hits; then the first is
    served again, so that pass finds every join node in the memo."""
    optimizer, cache = Optimizer(db), PlanCache()
    served = [
        optimizer.plan_cached(query, cache)
        for group in hot_bindings(db, 4, 3)
        for query in group + group[:1]
    ]
    assert [hit for _, hit in served] == [False, True, True, True] * 4
    return [plan for plan, _ in served]


def all_join_nodes_hit(db, plans) -> int:
    """How many multi-table plans, run in order on one executor, find every
    join node's sub-query in the memo -- the passes whose scans all go
    through ``cardinality()``."""
    executor, hits = CardinalityExecutor(db), 0
    for plan in plans:
        subs = [plan.query.restrict(node.tables) for node in plan.join_nodes()]
        hits += bool(subs) and all(
            executor._cache.peek((q.tables, q.joins, q.predicates)) is not None
            for q in subs
        )
        executor.plan_cardinalities(plan)
    return hits


@pytest.fixture(scope="module")
def plans(db):
    generated = WorkloadGenerator(db, seed=11).workload(40, 2, 5) + WorkloadGenerator(
        db, seed=12
    ).workload(20, 1, 5, require_predicate=True)
    return plans_for(db, generated + hand_built_queries()) + cached_plans(db)


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
    assert any(s.method is ScanMethod.INDEX and len(s.predicates) == 1 for s in scans)
    assert all_join_nodes_hit(db, plans), "no pass answers its scans through the memo"
    # ... and on every one of them the two paths agree
    counts = assert_paths_agree(db, plans)
    assert 0 in counts and max(counts) > 10_000


def test_one_pass_matches_reference_with_latency_noise(db, plans):
    assert_paths_agree(db, plans[::7], SimulatorConfig(noise_sigma=0.3, noise_seed=5))


def test_each_node_is_counted_once_and_filters_once_per_plan(db, plans, monkeypatch):
    plan = max(plans, key=lambda p: (p.query.n_tables, len(p.query.predicates)))
    walk = list(plan.walk())
    joins = [n.tables for n in reversed(walk) if isinstance(n, JoinNode)]
    scans = [n.tables for n in reversed(walk) if isinstance(n, ScanNode)]
    executor = CardinalityExecutor(db)
    asked, filtered = [], []
    cardinality = CardinalityExecutor.cardinality
    filtered_indices = executor_mod._filtered_indices
    monkeypatch.setattr(
        CardinalityExecutor,
        "cardinality",
        lambda self, q: asked.append(q) or cardinality(self, q),
    )
    monkeypatch.setattr(
        executor_mod,
        "_filtered_indices",
        lambda db_, q, t: filtered.append(t) or filtered_indices(db_, q, t),
    )
    cards = executor.plan_cardinalities(plan)
    assert list(cards) == list(reversed(walk))  # children first
    # each join node is asked once, children first; they filter every base
    # table once, so no scan is asked
    assert [frozenset(q.tables) for q in asked] == joins
    assert sorted(filtered) == sorted(plan.query.tables), "one filter pass per base table"
    assert executor._plan_rows is None  # row sets do not outlive the pass
    assert executor._plan_cores is None  # nor do core materializations
    # warm: every join node hits the memo and filters nothing, so each scan
    # is asked, and filters its own table once
    del asked[:], filtered[:]
    assert executor.plan_cardinalities(plan) == cards
    assert [frozenset(q.tables) for q in asked] == joins + scans
    assert sorted(filtered) == sorted(plan.query.tables)
    # execute() probes only the index scans with two or more predicates
    probed = 0
    for served in plans:
        query = served.query
        del asked[:]
        ExecutionSimulator(db).execute(served)
        counted = [
            query.restrict(n.tables)
            for n in reversed(list(served.walk()))
            if isinstance(n, JoinNode)
        ] or [query]
        probes = [
            Query((s.table,), (), s.predicates[:1])
            for s in served.scan_nodes()
            if s.method is ScanMethod.INDEX and len(s.predicates) >= 2
        ]
        assert asked == counted + probes
        probed += bool(probes)
    assert probed, "no plan probes an index: the last assert is vacuous"


def test_each_cyclic_core_is_materialized_once_per_pass(db, plans, monkeypatch):
    """Nodes that share a cyclic core -- the triangle and the triangle with
    ``badges`` hanging off it -- share one materialization within a pass."""
    built = []
    materialize = CardinalityExecutor._materialize

    def spy(self, query, core, joins, rows):
        built.append(joins)
        return materialize(self, query, core, joins, rows)

    monkeypatch.setattr(CardinalityExecutor, "_materialize", spy)
    shared = 0
    for plan in plans:
        cores = [
            join_graph(plan.query.restrict(node.tables)).recipe[2] for node in plan.walk()
        ]
        cores = [c for c in cores if c]
        del built[:]
        CardinalityExecutor(db).plan_cardinalities(plan)
        assert sorted(map(str, built)) == sorted(map(str, set(cores)))
        shared += len(cores) - len(set(cores))
    assert shared, "no plan has two nodes with one core: the memo is not exercised"


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


def spy_messages(monkeypatch) -> list[tuple]:
    """Record every message the live executor sends: ``(keys, weights, span,
    direct)``, ``direct`` being whether ``_group_sum`` built a
    direct-address table.  Install it before a mutation, so that the
    mutation's own patch of the module is restored over the spy."""
    messages = []
    group_sum = executor_mod._group_sum

    def spy(keys, weights, span):
        result = group_sum(keys, weights, span)
        messages.append((keys, weights, span, result[0] is None))
        return result

    monkeypatch.setattr(executor_mod, "_group_sum", spy)
    return messages


def test_deep_chain_past_2_53_declines_the_dense_path(monkeypatch):
    # ten tables: the messages themselves, not just the root total, pass 2**53
    db, query, expected = make_deep_chain(10, seed=0)
    assert expected > 2**53
    plans = [Optimizer(db).plan(query, hints=arm) for arm in ARMS[:2]]
    messages = spy_messages(monkeypatch)
    assert [ExecutionSimulator(db).execute(p).cardinality for p in plans] == [
        expected
    ] * len(plans)
    monkeypatch.undo()
    assert {direct for *_, direct in messages} == {True, False}, "expected both paths"
    for keys, weights, span, direct in messages:
        assert span == 5  # keys 0..4 in every column: only the guard can decline
        n = keys.shape[0]
        guarded = weights is None or (
            weights.dtype == np.int64
            and int(weights.min()) >= 0
            and n * int(weights.max()) < 2**53
        )
        assert direct == guarded
    assert assert_paths_agree(db, plans) == [expected] * len(plans)


@pytest.mark.parametrize("name", EXECUTOR_MUTATIONS)
def test_mutated_patch_points_move_both_paths_alike(db, plans, name):
    subset = plans[::3]
    clean = assert_paths_agree(db, subset)
    with apply_mutation(name):
        mutated = assert_paths_agree(db, subset)
    assert mutated != clean, f"{name} changed no count: it is not dispatched through"


@pytest.mark.parametrize("name", EXECUTOR_MUTATIONS)
def test_mutations_bite_on_direct_address_messages(db, plans, name, monkeypatch):
    messages = spy_messages(monkeypatch)

    def count(plan):
        """Node counts from a cold executor, and whether every message of
        the pass was a direct-address table (and there was one).  A message
        from an empty child side has no table to build and counts as
        either."""
        del messages[:]
        cards = CardinalityExecutor(db).plan_cardinalities(plan)
        sent = [direct for keys, *_, direct in messages if keys.size]
        return cards, bool(sent) and all(sent)

    clean = {}
    for plan in plans:
        cards, all_direct = count(plan)
        if all_direct:
            clean[plan] = cards
    assert len(clean) > len(plans) // 2
    moved = 0
    with apply_mutation(name):
        for plan, cards in clean.items():
            mutated, all_direct = count(plan)
            assert all_direct or not any(keys.size for keys, *_ in messages)
            moved += mutated != cards
    assert moved, f"{name} changed no count on the direct-address path"


def test_float64_mutation_moves_both_paths_alike():
    db, query, expected = make_deep_chain(8, seed=0)
    plans = [Optimizer(db).plan(query, hints=arm) for arm in ARMS[:2]]
    with apply_mutation("tree_count_float64"):
        mutated = assert_paths_agree(db, plans)
        # implicit unit weights are float ones to the mutation
        uniq, sums = executor_mod._group_sum(np.array([3, 1, 3]), None, 4)
        assert uniq.tolist() == [1, 3]
        assert sums.dtype == np.float64 and sums.tolist() == [1.0, 2.0]
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


# -- nothing per node outlives the pass ------------------------------------------


def reachable(root) -> list:
    """Every object reachable from ``root`` through containers and instance
    dicts -- not through classes, functions, modules or enum members, which
    lead to everything."""
    skip = (type, types.ModuleType, types.FunctionType, enum.Enum)
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


def hot_bindings(db, n_templates: int, bindings: int) -> list[list[Query]]:
    """``bindings`` distinct literal bindings of each of ``n_templates``
    templates, grouped by template (a template with few distinct literals
    is passed over)."""
    stream = WorkloadGenerator(db, seed=31).parameterized_workload(
        n_templates + 4, bindings * 3, 2, 4, require_predicate=True
    )
    by_template: dict[str, list[Query]] = {}
    for q in stream:
        group = by_template.setdefault(q.template_key, [])
        if q not in group:
            group.append(q)
    groups = [g[:bindings] for g in by_template.values() if len(g) >= bindings]
    assert len(groups) >= n_templates
    return groups[:n_templates]


def test_a_plan_cache_hit_leaves_no_subquery_behind(db):
    optimizer, cache = Optimizer(db), PlanCache()
    simulator = ExecutionSimulator(db)
    checked = 0
    for first, second in hot_bindings(db, 6, 2):
        optimizer.plan_cached(first, cache)
        plan, hit = optimizer.plan_cached(second, cache)
        assert hit and plan.query is second
        simulator.execute(plan)
        assert "_subqueries" not in second.__dict__
        checked += plan.query.n_tables > 1
    assert checked
    found = reachable(simulator.executor._cache)
    assert any(isinstance(o, Predicate) for o in found), "the walk missed the keys"
    assert not any(isinstance(o, Query) for o in found)


def _live_queries() -> int:
    gc.collect()
    return sum(isinstance(o, Query) for o in gc.get_objects())


def test_serving_plan_cache_hits_keeps_only_the_served_queries(db):
    backend = ConsoleBackend(
        PilotScopeConsole(SimulatedPostgreSQL(db), plan_cache=PlanCache())
    )
    groups = hot_bindings(db, 8, 28)
    for group in groups:  # one miss per template, then two warm hits
        for query in group[:3]:
            backend.serve(query)
    pending = [q for group in groups for q in group[3:]]
    assert len(pending) == 200
    hits = backend.plan_cache.stats()["hits"]
    served = []
    before = _live_queries()
    for q in pending:
        # a fresh, memo-free copy per request, as a parser would hand over
        served.append(Query(q.tables, q.joins, q.predicates))
        backend.serve(served[-1])
    assert backend.plan_cache.stats()["hits"] == hits + len(pending)
    assert _live_queries() - before == len(served)


# -- one key-index cache per database ----------------------------------------------


def test_two_databases_each_count_from_their_own_key_index():
    dbs = [make_stats_lite(scale=0.3, seed=0), make_stats_lite(scale=0.2, seed=1)]
    engines = [
        (db, CardinalityExecutor(db), PlanInterpreter(db), Optimizer(db)) for db in dbs
    ]
    workloads = [
        [
            q
            for q in WorkloadGenerator(db, seed=5).workload(400, 3, 5)
            if len(q.joins) >= q.n_tables  # cyclic: the key index builds each join
        ][:30]
        for db in dbs
    ]
    assert all(len(w) == 30 for w in workloads)
    # interleaved, so a cache shared between the two would be asked about both
    for pair in zip(*workloads):
        for (db, executor, interpreter, optimizer), query in zip(engines, pair):
            expected = reference_count(db, query)
            assert executor.cardinality(query) == expected
            assert interpreter.count(optimizer.plan(query)) == expected
    for build in (CardinalityExecutor, PlanInterpreter):
        with pytest.raises(TypeError, match="key_index"):
            build(dbs[0], key_index=KeyIndexCache())
