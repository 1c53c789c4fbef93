"""Tests for the exact executor, plan trees and the latency simulator.

The executor is cross-checked against a brute-force nested-loop reference
on randomly generated queries (property-based), including cyclic joins.
"""

import copy
import dataclasses
import json
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    CardinalityExecutor,
    ExecutionSimulator,
    JoinMethod,
    JoinNode,
    Plan,
    ScanMethod,
    ScanNode,
    SimulatorConfig,
    execute_cardinality,
)
from repro.core.lru import BoundedLRU
from repro.engine.executor import IntermediateTooLarge
from repro.optimizer import Optimizer
from repro.sql import ColumnRef, Join, Op, Predicate, Query, WorkloadGenerator
from repro.storage import Column, Database, JoinEdge, Table


def brute_force_count(db, query):
    """Reference nested-loop COUNT(*) over the real data."""
    tables = list(query.tables)
    rows_per_table = []
    for t in tables:
        tbl = db.table(t)
        mask = np.ones(tbl.n_rows, dtype=bool)
        for p in query.predicates_on(t):
            mask &= p.evaluate(tbl.values(p.column.column))
        rows_per_table.append(np.flatnonzero(mask))

    count = 0

    def recurse(i, assignment):
        nonlocal count
        if i == len(tables):
            count += 1
            return
        t = tables[i]
        for row in rows_per_table[i]:
            ok = True
            for j in query.joins:
                lt, rt = j.left.table, j.right.table
                if t in (lt, rt):
                    other = rt if t == lt else lt
                    if other in assignment:
                        my_col = j.left.column if t == lt else j.right.column
                        other_col = j.right.column if t == lt else j.left.column
                        mine = db.table(t).values(my_col)[row]
                        theirs = db.table(other).values(other_col)[assignment[other]]
                        if mine != theirs:
                            ok = False
                            break
            if ok:
                assignment[t] = row
                recurse(i + 1, assignment)
                del assignment[t]

    recurse(0, {})
    return count


def memoized(executor, query) -> bool:
    """Whether the executor's memo answers ``query``, seen through its front
    door and counters (asking refreshes the entry, or fills it on a miss)."""
    hits = executor.cache_stats()["hits"]
    executor.cardinality(query)
    return executor.cache_stats()["hits"] > hits


@pytest.fixture(scope="module")
def tiny_db():
    """A tiny 3-table database small enough for brute force."""
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
    comments = Table(
        "comments",
        [
            Column("pid", rng.integers(0, 20, 30)),
            Column("cuid", rng.integers(0, 12, 30)),
            Column("len", rng.integers(0, 6, 30)),
        ],
    )
    return Database(
        "tiny",
        [users, posts, comments],
        [
            JoinEdge("posts", "uid", "users", "id"),
            JoinEdge("comments", "pid", "posts", "id"),
            JoinEdge("comments", "cuid", "users", "id"),
        ],
    )


class TestExecutorCorrectness:
    def test_single_table(self, tiny_db):
        q = Query(("users",), (), (Predicate(ColumnRef("users", "age"), Op.LE, 2.0),))
        assert execute_cardinality(tiny_db, q) == brute_force_count(tiny_db, q)

    def test_two_table_join(self, tiny_db):
        q = Query(
            ("posts", "users"),
            (Join(ColumnRef("posts", "uid"), ColumnRef("users", "id")),),
            (Predicate(ColumnRef("users", "age"), Op.EQ, 1.0),),
        )
        assert execute_cardinality(tiny_db, q) == brute_force_count(tiny_db, q)

    def test_three_table_chain(self, tiny_db):
        q = Query(
            ("comments", "posts", "users"),
            (
                Join(ColumnRef("posts", "uid"), ColumnRef("users", "id")),
                Join(ColumnRef("comments", "pid"), ColumnRef("posts", "id")),
            ),
            (Predicate(ColumnRef("comments", "len"), Op.GE, 3.0),),
        )
        assert execute_cardinality(tiny_db, q) == brute_force_count(tiny_db, q)

    def test_cyclic_triangle(self, tiny_db):
        q = Query(
            ("comments", "posts", "users"),
            (
                Join(ColumnRef("posts", "uid"), ColumnRef("users", "id")),
                Join(ColumnRef("comments", "pid"), ColumnRef("posts", "id")),
                Join(ColumnRef("comments", "cuid"), ColumnRef("users", "id")),
            ),
        )
        assert execute_cardinality(tiny_db, q) == brute_force_count(tiny_db, q)

    def test_empty_result(self, tiny_db):
        q = Query(("users",), (), (Predicate(ColumnRef("users", "age"), Op.GT, 99.0),))
        assert execute_cardinality(tiny_db, q) == 0

    def test_disconnected_rejected(self, tiny_db):
        q = Query(("posts", "users"))
        with pytest.raises(ValueError, match="disconnected"):
            execute_cardinality(tiny_db, q)

    def test_memoization(self, tiny_db):
        ex = CardinalityExecutor(tiny_db)
        q = Query(("users",), (), (Predicate(ColumnRef("users", "age"), Op.LE, 2.0),))
        first = ex.cardinality(q)
        assert memoized(ex, q)
        # an equal query built afresh is the same entry
        assert memoized(ex, Query(q.tables, q.joins, q.predicates))
        assert ex.cardinality(q) == first
        ex.clear_cache()
        assert not memoized(ex, q)

    def test_intermediate_guard(self, tiny_db):
        ex = CardinalityExecutor(tiny_db, max_intermediate_rows=1)
        q = Query(
            ("comments", "posts", "users"),
            (
                Join(ColumnRef("posts", "uid"), ColumnRef("users", "id")),
                Join(ColumnRef("comments", "pid"), ColumnRef("posts", "id")),
                Join(ColumnRef("comments", "cuid"), ColumnRef("users", "id")),
            ),
        )
        with pytest.raises(IntermediateTooLarge):
            ex.cardinality(q)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_queries_match_brute_force(self, tiny_db, seed):
        gen = WorkloadGenerator(tiny_db, seed=seed)
        q = gen.random_query(1, 3)
        assert execute_cardinality(tiny_db, q) == brute_force_count(tiny_db, q)


class TestIntegerExactCounts:
    """S1 regression: counts stay integer-exact past float64's 2**53 limit.

    The deep-chain fixture is built so every per-key product (and the odd
    total) exceeds what float64 can represent -- the old float64
    message-passing accumulator silently rounded these.
    """

    def test_chain_exact_past_float53(self):
        from repro.oracle.fixtures import make_deep_chain

        db, q, expected = make_deep_chain(8)
        assert expected > 2**53 and expected % 2 == 1
        assert int(float(expected)) != expected  # not float64-representable
        assert execute_cardinality(db, q) == expected

    def test_chain_exact_past_int64(self):
        from repro.oracle.fixtures import make_deep_chain

        db, q, expected = make_deep_chain(10)
        assert expected > 2**63  # forces the object-dtype promotion path
        assert execute_cardinality(db, q) == expected

    def test_count_is_python_int(self, tiny_db):
        q = Query(
            ("posts", "users"),
            (Join(ColumnRef("posts", "uid"), ColumnRef("users", "id")),),
        )
        result = execute_cardinality(tiny_db, q)
        assert type(result) is int


class TestMaterializedCount:
    """S5: edge cases of the cyclic-query hash-join materialization path."""

    def triangle(self, *predicates):
        return Query(
            ("comments", "posts", "users"),
            (
                Join(ColumnRef("posts", "uid"), ColumnRef("users", "id")),
                Join(ColumnRef("comments", "pid"), ColumnRef("posts", "id")),
                Join(ColumnRef("comments", "cuid"), ColumnRef("users", "id")),
            ),
            predicates,
        )

    def test_empty_intermediate(self, tiny_db):
        q = self.triangle(Predicate(ColumnRef("users", "age"), Op.GT, 99.0))
        assert execute_cardinality(tiny_db, q) == 0

    def test_agrees_with_tree_count_on_acyclic(self, tiny_db):
        # Force an acyclic query down the kept materialization path: the
        # live counter and both kept strategies must produce the same count
        # as brute force.
        from tests.executor_reference import ReferenceCardinalityExecutor

        ex = ReferenceCardinalityExecutor(tiny_db)
        q = Query(
            ("comments", "posts", "users"),
            (
                Join(ColumnRef("posts", "uid"), ColumnRef("users", "id")),
                Join(ColumnRef("comments", "pid"), ColumnRef("posts", "id")),
            ),
            (Predicate(ColumnRef("posts", "score"), Op.LE, 2.0),),
        )
        expected = brute_force_count(tiny_db, q)
        assert CardinalityExecutor(tiny_db).cardinality(q) == expected
        assert ex._tree_count(q) == expected
        assert ex._materialized_count(q) == expected

    def test_cycle_edge_filters(self, tiny_db):
        # Closing the triangle can only remove tuples relative to the
        # two-edge chain, and the cyclic count must match brute force.
        cyclic = self.triangle()
        chain = Query(cyclic.tables, cyclic.joins[:-1])
        n_cyclic = execute_cardinality(tiny_db, cyclic)
        assert n_cyclic == brute_force_count(tiny_db, cyclic)
        assert n_cyclic <= execute_cardinality(tiny_db, chain)

    def test_guard_raises_not_truncates(self, tiny_db):
        ex = CardinalityExecutor(tiny_db, max_intermediate_rows=2)
        with pytest.raises(IntermediateTooLarge):
            ex.cardinality(self.triangle())
        # A roomier guard must succeed and agree with brute force.
        roomy = CardinalityExecutor(tiny_db)
        q = self.triangle()
        assert roomy.cardinality(q) == brute_force_count(tiny_db, q)


class TestExecutorMemoLRU:
    """The per-query memo is bounded (serving streams are unbounded)."""

    def _query(self, bound):
        return Query(
            ("users",), (), (Predicate(ColumnRef("users", "age"), Op.LE, bound),)
        )

    def test_eviction_at_capacity(self, tiny_db):
        ex = CardinalityExecutor(tiny_db, cache_capacity=2)
        for bound in (0.0, 1.0, 2.0):
            ex.cardinality(self._query(bound))
        stats = ex.cache_stats()
        assert stats["entries"] == 2
        assert stats["evictions"] == 1
        # The oldest entry (bound 0.0) was evicted, the newest two remain.
        assert memoized(ex, self._query(2.0))
        assert not memoized(ex, self._query(0.0))

    def test_lru_order_recency_not_insertion(self, tiny_db):
        ex = CardinalityExecutor(tiny_db, cache_capacity=2)
        ex.cardinality(self._query(0.0))
        ex.cardinality(self._query(1.0))
        ex.cardinality(self._query(0.0))  # refresh 0.0
        ex.cardinality(self._query(2.0))  # must evict 1.0, not 0.0
        assert memoized(ex, self._query(0.0))
        assert not memoized(ex, self._query(1.0))

    def test_hit_miss_counters(self, tiny_db):
        ex = CardinalityExecutor(tiny_db)
        q = self._query(2.0)
        ex.cardinality(q)
        ex.cardinality(q)
        ex.cardinality(q)
        stats = ex.cache_stats()
        assert stats["hits"] == 2 and stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(2 / 3)

    def test_stats_render(self, tiny_db):
        # The dict must be consumable by the shared stats renderer.
        from repro.bench import render_stats

        ex = CardinalityExecutor(tiny_db)
        ex.cardinality(self._query(1.0))
        text = render_stats(ex.cache_stats(), title="executor memo")
        assert "hit_rate" in text and "component" not in text

    def test_invalid_capacity(self, tiny_db):
        with pytest.raises(ValueError, match="cache_capacity"):
            CardinalityExecutor(tiny_db, cache_capacity=0)

    def test_clear_cache_drops_key_indexes(self, tiny_db):
        ex = CardinalityExecutor(tiny_db)
        q = Query(
            ("comments", "posts", "users"),
            (
                Join(ColumnRef("posts", "uid"), ColumnRef("users", "id")),
                Join(ColumnRef("comments", "pid"), ColumnRef("posts", "id")),
                Join(ColumnRef("comments", "cuid"), ColumnRef("users", "id")),
            ),
        )
        ex.cardinality(q)
        assert len(ex.key_index) > 0
        ex.clear_cache()
        assert len(ex.key_index) == 0


class TestEdgeOrderRegression:
    """Regression: `_materialized_count` used to pick frontier edges in
    declaration order (`candidates[0]`), which could force a huge build
    table in before a tiny one and trip `IntermediateTooLarge` on cyclic
    queries that a smallest-build-side order completes comfortably.
    """

    @pytest.fixture(scope="class")
    def cyclic_db(self):
        # Triangle beta -- mid -- src.  Join declaration order (after
        # Query normalization/sorting) is:
        #   [beta.a = src.a, beta.c = mid.c, mid.k = src.k]
        # Materialization starts at `mid` (smallest filtered table, 50
        # rows); its frontier candidates are `beta.c = mid.c` (build beta,
        # 2000 rows, constant column: every probe matches all 2000 rows ->
        # a 100,000-row intermediate) and `mid.k = src.k` (build src, 100
        # rows, unique keys -> 50 rows).  The old declaration-order pick
        # took the first and blew the guard; smallest-build-side takes the
        # second and peaks at 10,000 rows.
        beta = Table(
            "beta",
            [Column("a", np.arange(2000) % 10), Column("c", np.full(2000, 7))],
        )
        mid = Table(
            "mid", [Column("k", np.arange(50)), Column("c", np.full(50, 7))]
        )
        src = Table(
            "src", [Column("k", np.arange(100)), Column("a", np.arange(100) % 10)]
        )
        return Database(
            "cyc",
            [beta, mid, src],
            [
                JoinEdge("beta", "a", "src", "a"),
                JoinEdge("beta", "c", "mid", "c"),
                JoinEdge("mid", "k", "src", "k"),
            ],
        )

    @pytest.fixture(scope="class")
    def triangle(self):
        return Query(
            ("beta", "mid", "src"),
            (
                Join(ColumnRef("beta", "a"), ColumnRef("src", "a")),
                Join(ColumnRef("beta", "c"), ColumnRef("mid", "c")),
                Join(ColumnRef("mid", "k"), ColumnRef("src", "k")),
            ),
        )

    def test_fixture_join_order(self, triangle):
        # The premise of the regression: the bad (constant-column) edge
        # precedes the good one in declaration order.
        assert [str(j) for j in triangle.joins] == [
            "beta.a = src.a",
            "beta.c = mid.c",
            "mid.k = src.k",
        ]

    def test_completes_under_guard_old_order_tripped(self, cyclic_db, triangle):
        # Old order needed a 100,000-row intermediate; guard is 20,000.
        ex = CardinalityExecutor(cyclic_db, max_intermediate_rows=20_000)
        assert ex.cardinality(triangle) == 10_000

    def test_count_matches_reference(self, cyclic_db, triangle):
        from repro.oracle.reference import reference_count

        assert execute_cardinality(cyclic_db, triangle) == reference_count(
            cyclic_db, triangle
        )

    def test_guard_still_live(self, cyclic_db, triangle):
        # The new order still materializes 10,000 rows; a tighter guard
        # must keep raising rather than truncating.
        ex = CardinalityExecutor(cyclic_db, max_intermediate_rows=5_000)
        with pytest.raises(IntermediateTooLarge):
            ex.cardinality(triangle)


#: counts a 4-cycle whose tables all reach one other table by lookups and
#: whose two smallest tie on size, and prints the count, the reference
#: count and every ``KeyIndexCache.restricted`` call (an expanding join's
#: build side), in order
_START_TABLE_PROBE = """
import json
import numpy as np
from repro.engine import CardinalityExecutor
from repro.engine.kernels import KeyIndexCache
from repro.oracle import reference_count
from repro.sql import ColumnRef, Join, Query
from repro.storage import Column, Database, JoinEdge, Table

sizes = {"north": 6, "east": 6, "south": 9, "west": 12}
ring = ["north", "east", "south", "west"]
db = Database(
    "ring",
    [Table(t, [Column("k", np.arange(n)), Column("j", np.arange(n) % 3)])
     for t, n in sizes.items()],
    [JoinEdge(a, "k" if i % 2 else "j", b, "k" if i % 2 else "j")
     for i, (a, b) in enumerate(zip(ring, ring[1:] + ring[:1]))],
)
query = Query(tuple(ring), tuple(
    Join(ColumnRef(e.left_table, e.left_column), ColumnRef(e.right_table, e.right_column))
    for e in db.joins
))
calls = []
restricted = KeyIndexCache.restricted
def logged(self, table, column, rows):
    calls.append([table.name, column])
    return restricted(self, table, column, rows)
KeyIndexCache.restricted = logged
count = CardinalityExecutor(db).cardinality(query)
print(json.dumps([count, reference_count(db, query), calls]))
"""


def test_materializer_start_table_ignores_the_hash_seed():
    """Regression: the cyclic materializer took its start table as the
    smallest of a ``set``, so on a size tie the pick -- and with it the
    join order, the intermediate sizes and whether the row guard trips --
    followed the process's string-hash seed.  The start table now reaches
    the most tables by lookups, then is the smallest, and a tie goes to the
    first table by name."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    runs = set()
    for seed in range(6):
        env["PYTHONHASHSEED"] = str(seed)
        proc = subprocess.run(
            [sys.executable, "-c", _START_TABLE_PROBE],
            capture_output=True, text=True, env=env, check=True,
        )
        runs.add(proc.stdout)
    (out,) = runs
    count, expected, calls = json.loads(out)
    # every table reaches one other by a lookup on its unique "k", so the
    # start is "east", the size tie's first by name; it looks "south" up,
    # expands into "north", its smaller frontier table, and looks "west" up
    # (a start at "north" would expand into "east" first)
    assert calls == [["north", "j"]]
    assert count == expected > 0


class TestPlans:
    def _two_table_plan(self, method=JoinMethod.HASH):
        q = Query(
            ("posts", "users"),
            (Join(ColumnRef("posts", "uid"), ColumnRef("users", "id")),),
            (Predicate(ColumnRef("users", "age"), Op.LE, 2.0),),
        )
        join = Join(ColumnRef("posts", "uid"), ColumnRef("users", "id"))
        users = ScanNode(table="users", predicates=q.predicates_on("users"))
        node = JoinNode(ScanNode(table="posts"), users, method, (join,))
        return Plan(q, node)

    def test_plan_must_cover_query(self):
        q = Query(("posts", "users"), (Join(ColumnRef("posts", "uid"), ColumnRef("users", "id")),))
        with pytest.raises(ValueError, match="covers"):
            Plan(q, ScanNode(table="posts"))

    def test_join_children_must_not_overlap(self):
        a = ScanNode(table="t1")
        b = ScanNode(table="t1")
        with pytest.raises(ValueError, match="overlap"):
            JoinNode(a, b, conditions=(Join(ColumnRef("t1", "x"), ColumnRef("t2", "y")),))

    def test_join_requires_condition(self):
        with pytest.raises(ValueError, match="condition"):
            JoinNode(ScanNode(table="a"), ScanNode(table="b"), conditions=())

    def test_condition_must_span_sides(self):
        bad = Join(ColumnRef("a", "x"), ColumnRef("c", "y"))
        with pytest.raises(ValueError, match="span"):
            JoinNode(ScanNode(table="a"), ScanNode(table="b"), conditions=(bad,))

    def test_walk_and_counts(self):
        plan = self._two_table_plan()
        nodes = list(plan.walk())
        assert len(nodes) == 3
        assert plan.root.n_nodes == 3
        assert len(plan.scan_nodes()) == 2
        assert len(plan.join_nodes()) == 1

    def test_join_order(self):
        plan = self._two_table_plan()
        assert plan.join_order() == ["posts", "users"]

    def test_signature_distinguishes_methods(self):
        a = self._two_table_plan(JoinMethod.HASH)
        b = self._two_table_plan(JoinMethod.MERGE)
        assert a.signature() != b.signature()

    def test_pretty_contains_operators(self):
        text = self._two_table_plan().pretty()
        assert "HashJoin" in text and "SeqScan" in text

    def test_node_subquery(self, tiny_db):
        plan = self._two_table_plan()
        sub = plan.node_subquery(plan.root.left)
        assert sub.tables == ("posts",)


#: runs in a process with another ``PYTHONHASHSEED``: load, hash (which
#: memoizes ``_hash`` under *that* process's salt), dump back
_REHASH_ELSEWHERE = """
import pickle, sys
objects = pickle.load(sys.stdin.buffer)
hashes = [hash(o) for o in objects]
query, plan = objects
assert "_hash" in query.__dict__ and "_hash" in plan.root.__dict__
sys.stdout.buffer.write(pickle.dumps((objects, hashes)))
"""


class TestHashOnce:
    """``Query``, ``Join``, ``Predicate``, ``ScanNode`` and ``JoinNode``
    memoize their hash; a ``str``-derived hash is per-process, so the memo
    must stay home."""

    @staticmethod
    def _memoizing(plan):
        return [plan.query, *plan.query.joins, *plan.query.predicates, *plan.walk()]

    def _plan(self, db):
        q = WorkloadGenerator(db, seed=21).workload(1, 3, 3, require_predicate=True)[0]
        return Optimizer(db).plan(q)

    def test_hash_is_the_field_hash_computed_once(self, stats_db):
        plan = self._plan(stats_db)
        q, root = plan.query, plan.root
        assert hash(q) == hash((q.tables, q.joins, q.predicates)) == q.__dict__["_hash"]
        assert hash(root) == hash((root.left, root.right, root.method, root.conditions))
        scan = plan.scan_nodes()[0]
        assert hash(scan) == hash((scan.table, scan.method, scan.predicates))
        p = q.predicates[0]
        assert hash(p) == hash((p.column, p.op, p.value))
        j = q.joins[0]
        assert hash(j) == hash((j.left, j.right)) == j.__dict__["_hash"]
        assert q == Query(q.tables, q.joins, q.predicates)
        assert hash(q) == hash(Query(q.tables, q.joins, q.predicates))

    def test_equal_values_hash_equal_and_replace_hashes_afresh(self, stats_db):
        q = self._plan(stats_db).query
        for value, changes in (
            (q.predicates[0], {"value": 1e9}),
            (q.joins[0], {"left": q.joins[0].right, "right": q.joins[0].left}),
        ):
            hash(value)
            fields = [getattr(value, f) for f in value.__dataclass_fields__]
            twin = type(value)(*fields)
            assert twin == value and "_hash" not in twin.__dict__
            assert hash(twin) == hash(value) and {value: 1}[twin] == 1
            moved = dataclasses.replace(value, **changes)
            assert "_hash" not in moved.__dict__ and moved != value
            assert hash(moved) == hash(
                tuple(getattr(moved, f) for f in moved.__dataclass_fields__)
            )
            assert hash(value) == hash(tuple(fields))  # the original kept its own

    def test_pickle_and_deepcopy_drop_only_the_hash(self, stats_db):
        plan = self._plan(stats_db)
        hash(plan)
        plan.query.subquery(plan.query.tables[:2])  # another memo, which must survive
        assert all("_hash" in o.__dict__ for o in self._memoizing(plan))
        for clone in (pickle.loads(pickle.dumps(plan)), copy.deepcopy(plan)):
            assert clone == plan and clone is not plan
            assert not any("_hash" in o.__dict__ for o in self._memoizing(clone))
            assert set(clone.query.__dict__) == set(plan.query.__dict__) - {"_hash"}
            assert clone.root.__dict__["_tables"] == plan.root.tables
            assert hash(clone) == hash(plan) and {plan: 1}[clone] == 1

    def test_memo_does_not_travel_to_a_process_with_another_salt(self, stats_db):
        plan = self._plan(stats_db)
        query = plan.query
        # ship a memo-free payload whatever __getstate__ does, so that the
        # only hashes that could come back are the child's
        for obj in self._memoizing(plan):
            obj.__dict__.pop("_hash", None)
        payload = pickle.dumps((query, plan))
        by_dict = {query: "query", plan: "plan"}
        by_lru = BoundedLRU(4)
        by_lru.put(query, "query")
        by_lru.put(plan, "plan")
        seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
        child = subprocess.run(
            [sys.executable, "-c", _REHASH_ELSEWHERE],
            input=payload,
            capture_output=True,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(sys.path)},
            timeout=60,
        )
        assert child.returncode == 0, child.stderr.decode()
        (their_query, their_plan), their_hashes = pickle.loads(child.stdout)
        assert their_hashes != [hash(query), hash(plan)], "the child shared our salt"
        assert by_dict[their_query] == "query" and by_dict[their_plan] == "plan"
        assert by_lru.get(their_query) == "query" and by_lru.get(their_plan) == "plan"


class TestSimulator:
    def _plan(self, db, gen_seed=0):
        gen = WorkloadGenerator(db, seed=gen_seed)
        q = gen.random_query(2, 3, require_predicate=True)
        from repro.optimizer import Optimizer

        return Optimizer(db).plan(q)

    def test_deterministic_without_noise(self, stats_db):
        sim = ExecutionSimulator(stats_db)
        plan = self._plan(stats_db)
        assert sim.execute(plan).latency_ms == sim.execute(plan).latency_ms

    def test_noise_reproducible_per_plan(self, stats_db):
        cfg = SimulatorConfig(noise_sigma=0.2, noise_seed=1)
        sim = ExecutionSimulator(stats_db, cfg)
        plan = self._plan(stats_db)
        assert sim.execute(plan).latency_ms == sim.execute(plan).latency_ms

    def test_noise_changes_latency(self, stats_db):
        plan = self._plan(stats_db)
        base = ExecutionSimulator(stats_db).execute(plan).latency_ms
        noisy = ExecutionSimulator(
            stats_db, SimulatorConfig(noise_sigma=0.5, noise_seed=3)
        ).execute(plan).latency_ms
        assert noisy != base

    def test_result_consistency(self, stats_db, stats_executor):
        sim = ExecutionSimulator(stats_db)
        plan = self._plan(stats_db, gen_seed=4)
        res = sim.execute(plan)
        assert res.cardinality == stats_executor.cardinality(plan.query)
        assert res.latency_ms > 0
        assert res.total_cost > 0
        assert set(res.node_cards) == set(plan.walk())

    def test_index_scan_cheaper_when_selective(self, stats_db):
        # A highly selective predicate should make the index scan cheaper
        # than the sequential scan under the simulator's true constants.
        q = Query(
            ("posts",),
            (),
            (Predicate(ColumnRef("posts", "view_count"), Op.EQ, 70.0),),
        )
        sim = ExecutionSimulator(stats_db)
        seq = Plan(q, ScanNode("posts", ScanMethod.SEQ, q.predicates))
        idx = Plan(q, ScanNode("posts", ScanMethod.INDEX, q.predicates))
        assert sim.execute(idx).latency_ms < sim.execute(seq).latency_ms

    def test_stats_counters(self, stats_db):
        sim = ExecutionSimulator(stats_db)
        plan = self._plan(stats_db, gen_seed=5)
        sim.execute(plan)
        assert sim.queries_executed == 1
        assert sim.total_latency_ms > 0
