"""Tests for the query IR, the parser and the workload generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql import (
    ColumnRef,
    Join,
    Op,
    Predicate,
    Query,
    SQLSyntaxError,
    WorkloadGenerator,
    parse_query,
)


def ref(t="t", c="x"):
    return ColumnRef(t, c)


class TestPredicate:
    @pytest.mark.parametrize(
        "op,value,inputs,expected",
        [
            (Op.EQ, 2.0, [1, 2, 3], [False, True, False]),
            (Op.LT, 2.0, [1, 2, 3], [True, False, False]),
            (Op.LE, 2.0, [1, 2, 3], [True, True, False]),
            (Op.GT, 2.0, [1, 2, 3], [False, False, True]),
            (Op.GE, 2.0, [1, 2, 3], [False, True, True]),
            (Op.BETWEEN, (1.5, 3.0), [1, 2, 3], [False, True, True]),
            (Op.IN, frozenset([1.0, 3.0]), [1, 2, 3], [True, False, True]),
        ],
    )
    def test_evaluate(self, op, value, inputs, expected):
        pred = Predicate(ref(), op, value)
        assert list(pred.evaluate(np.array(inputs, dtype=float))) == expected

    def test_between_validates_order(self):
        with pytest.raises(ValueError):
            Predicate(ref(), Op.BETWEEN, (3.0, 1.0))

    def test_in_rejects_empty(self):
        with pytest.raises(ValueError):
            Predicate(ref(), Op.IN, frozenset())

    def test_scalar_required(self):
        with pytest.raises(ValueError):
            Predicate(ref(), Op.LT, (1.0, 2.0))

    def test_to_range(self):
        assert Predicate(ref(), Op.EQ, 5.0).to_range() == (5.0, 5.0)
        lo, hi = Predicate(ref(), Op.LE, 5.0).to_range()
        assert lo == -np.inf and hi == 5.0

    @given(st.floats(-100, 100), st.lists(st.floats(-100, 100), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_range_consistent_with_evaluate(self, threshold, values):
        pred = Predicate(ref(), Op.GE, threshold)
        arr = np.array(values)
        lo, hi = pred.to_range()
        mask = pred.evaluate(arr)
        in_range = (arr >= lo) & (arr <= hi)
        assert np.array_equal(mask, in_range)

    @pytest.mark.parametrize(
        "op,value,expected",
        [
            (Op.EQ, 5.0, (5.0, 5.0, True, True)),
            (Op.LT, 5.0, (-np.inf, 5.0, True, False)),
            (Op.LE, 5.0, (-np.inf, 5.0, True, True)),
            (Op.GT, 5.0, (5.0, np.inf, False, True)),
            (Op.GE, 5.0, (5.0, np.inf, True, True)),
            (Op.BETWEEN, (1.0, 3.0), (1.0, 3.0, True, True)),
            (Op.IN, frozenset([4.0, 1.0, 9.0]), (1.0, 9.0, True, True)),
        ],
    )
    def test_to_bounds(self, op, value, expected):
        assert Predicate(ref(), op, value).to_bounds() == expected

    def test_to_bounds_exact_at_large_magnitude(self):
        # The motivating case for replacing to_range's epsilon shift: at
        # 2e9 the 1e-9 epsilon vanishes in float64, so the hull cannot
        # distinguish > v from >= v -- the bounds flags still can.
        v = 2_000_000_000.0
        assert v + 1e-9 == v  # epsilon really is absorbed at this scale
        lo, hi, lo_inc, hi_inc = Predicate(ref(), Op.GT, v).to_bounds()
        assert (lo, lo_inc) == (v, False)
        ge = Predicate(ref(), Op.GE, v).to_bounds()
        assert (ge[0], ge[2]) == (v, True)

    @given(
        st.sampled_from([Op.LT, Op.LE, Op.GT, Op.GE, Op.EQ]),
        st.floats(-100, 100),
        st.lists(st.floats(-100, 100), min_size=1, max_size=30),
    )
    @settings(max_examples=50, deadline=None)
    def test_bounds_consistent_with_evaluate(self, op, threshold, values):
        pred = Predicate(ref(), op, threshold)
        arr = np.array(values)
        lo, hi, lo_inc, hi_inc = pred.to_bounds()
        above = (arr > lo) | ((arr == lo) & lo_inc)
        below = (arr < hi) | ((arr == hi) & hi_inc)
        assert np.array_equal(pred.evaluate(arr), above & below)


class TestQuery:
    def _join_query(self):
        return Query(
            ("a", "b"),
            (Join(ColumnRef("a", "x"), ColumnRef("b", "y")),),
            (Predicate(ColumnRef("a", "z"), Op.GT, 1.0),),
        )

    def test_duplicate_tables_rejected(self):
        with pytest.raises(ValueError):
            Query(("a", "a"))

    def test_join_outside_from_rejected(self):
        with pytest.raises(ValueError):
            Query(("a",), (Join(ColumnRef("a", "x"), ColumnRef("b", "y")),))

    def test_self_join_rejected(self):
        with pytest.raises(ValueError):
            Query(("a",), (Join(ColumnRef("a", "x"), ColumnRef("a", "y")),))

    def test_predicate_outside_from_rejected(self):
        with pytest.raises(ValueError):
            Query(("a",), (), (Predicate(ColumnRef("b", "z"), Op.GT, 1.0),))

    def test_canonicalization_makes_equal(self):
        q1 = Query(("b", "a"), (Join(ColumnRef("b", "y"), ColumnRef("a", "x")),))
        q2 = Query(("a", "b"), (Join(ColumnRef("a", "x"), ColumnRef("b", "y")),))
        assert q1 == q2
        assert hash(q1) == hash(q2)

    def test_subquery_keeps_internal_parts(self):
        q = self._join_query()
        sub = q.subquery(["a"])
        assert sub.tables == ("a",)
        assert sub.joins == ()
        assert len(sub.predicates) == 1

    def test_subquery_unknown_table(self):
        with pytest.raises(ValueError):
            self._join_query().subquery(["zz"])

    def test_connectivity(self):
        q = self._join_query()
        assert q.is_connected()
        disconnected = Query(("a", "b"))
        assert not disconnected.is_connected()

    def test_to_sql_roundtrip(self):
        q = self._join_query()
        assert parse_query(q.to_sql()) == q

    def test_predicates_on(self):
        q = self._join_query()
        assert len(q.predicates_on("a")) == 1
        assert q.predicates_on("b") == ()


class TestParser:
    def test_minimal(self):
        q = parse_query("SELECT COUNT(*) FROM t")
        assert q.tables == ("t",)

    def test_case_insensitive_keywords(self):
        q = parse_query("select count(*) from t where t.x > 5")
        assert len(q.predicates) == 1

    def test_all_operators(self):
        sql = (
            "SELECT COUNT(*) FROM a, b WHERE a.x = b.y AND a.u = 1 AND "
            "a.v < 2 AND a.w <= 3 AND a.p > 4 AND a.q >= 5 AND "
            "a.r BETWEEN 1 AND 9 AND a.s IN (1, 2, 3)"
        )
        q = parse_query(sql)
        assert len(q.joins) == 1
        assert len(q.predicates) == 7
        ops = {p.op for p in q.predicates}
        assert ops == {Op.EQ, Op.LT, Op.LE, Op.GT, Op.GE, Op.BETWEEN, Op.IN}

    def test_negative_and_float_constants(self):
        q = parse_query("SELECT COUNT(*) FROM t WHERE t.x >= -2.5")
        assert q.predicates[0].value == -2.5

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "SELECT * FROM t",
            "SELECT COUNT(*) FROM",
            "SELECT COUNT(*) FROM t WHERE",
            "SELECT COUNT(*) FROM t WHERE x > 1",  # unqualified column
            "SELECT COUNT(*) FROM t WHERE t.x BETWEEN 1",
            "SELECT COUNT(*) FROM t WHERE t.x IN ()",
            "SELECT COUNT(*) FROM t WHERE t.x > 1 extra",
            "SELECT COUNT(*) FROM t, t",
            "SELECT COUNT(*) FROM t WHERE t.x ! 1",
        ],
    )
    def test_rejects_bad_sql(self, bad):
        with pytest.raises(SQLSyntaxError):
            parse_query(bad)

    def test_error_mentions_position(self):
        with pytest.raises(SQLSyntaxError, match="position"):
            parse_query("SELECT COUNT(*) FROM t WHERE t.x # 1")


class TestWorkloadGenerator:
    def test_deterministic(self, stats_db):
        a = WorkloadGenerator(stats_db, seed=9).workload(10)
        b = WorkloadGenerator(stats_db, seed=9).workload(10)
        assert a == b

    def test_queries_connected(self, stats_db):
        gen = WorkloadGenerator(stats_db, seed=1)
        for q in gen.workload(30, 2, 5):
            assert q.is_connected()

    def test_require_predicate(self, stats_db):
        gen = WorkloadGenerator(stats_db, seed=2)
        for q in gen.workload(30, 1, 3, require_predicate=True):
            assert q.predicates

    def test_table_count_bounds(self, stats_db):
        gen = WorkloadGenerator(stats_db, seed=3)
        for q in gen.workload(30, 2, 3):
            assert 2 <= q.n_tables <= 3

    def test_single_table_workload(self, stats_db):
        gen = WorkloadGenerator(stats_db, seed=4)
        qs = gen.single_table_workload("posts", 20)
        assert all(q.tables == ("posts",) for q in qs)
        assert all(q.predicates for q in qs)

    def test_join_template_workload_fixed_tables(self, stats_db):
        gen = WorkloadGenerator(stats_db, seed=5)
        qs = gen.join_template_workload(["posts", "users"], 10)
        assert all(q.tables == ("posts", "users") for q in qs)

    def test_join_template_rejects_disconnected(self, stats_db):
        gen = WorkloadGenerator(stats_db, seed=6)
        with pytest.raises(ValueError):
            gen.join_template_workload(["votes", "badges"], 5)

    def test_predicates_never_on_keys_or_join_columns(self, stats_db):
        gen = WorkloadGenerator(stats_db, seed=7)
        join_cols = set()
        for e in stats_db.joins:
            join_cols.add((e.left_table, e.left_column))
            join_cols.add((e.right_table, e.right_column))
        for q in gen.workload(40, 1, 4, require_predicate=True):
            for p in q.predicates:
                key = (p.column.table, p.column.column)
                assert key not in join_cols
                assert not stats_db.table(p.column.table).column(p.column.column).is_key

    def test_invalid_bounds(self, stats_db):
        gen = WorkloadGenerator(stats_db, seed=8)
        with pytest.raises(ValueError):
            gen.random_query(3, 2)


class TestDisconnectedSchemas:
    """Regression: the subgraph sampler used to assume one connected
    join graph and died after 50 futile retries on generated schemas
    with multiple components."""

    @pytest.fixture(scope="class")
    def disconnected_db(self):
        from repro.storage import SchemaGenConfig, generate_database

        cfg = SchemaGenConfig(
            n_tables=(6, 6), rows=(80, 150), attr_cols=(1, 2), n_components=2
        )
        db = generate_database(11, cfg, name="gen")
        from repro.storage import topology_summary

        assert len(topology_summary(db)["components"]) == 2
        return db

    def _component_of(self, db, table):
        seen, stack = {table}, [table]
        while stack:
            t = stack.pop()
            for nb in db.neighbors(t):
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        return frozenset(seen)

    def test_workload_on_disconnected_schema(self, disconnected_db):
        gen = WorkloadGenerator(disconnected_db, seed=0)
        cap = gen.max_component_size
        assert cap < len(disconnected_db.table_names)
        for q in gen.workload(40, 2, cap):
            assert q.is_connected()
            # every query lives inside exactly one component
            comp = self._component_of(disconnected_db, q.tables[0])
            assert set(q.tables) <= comp

    def test_oversized_request_names_components(self, disconnected_db):
        gen = WorkloadGenerator(disconnected_db, seed=0)
        too_many = gen.max_component_size + 1
        with pytest.raises(ValueError, match="component"):
            gen.random_query(too_many, too_many)

    def test_size_cap_respected_per_component(self, disconnected_db):
        """min_tables above the smallest component's size must still
        succeed by sampling only from components that are big enough."""
        sizes = sorted(len(c) for c in gen_components(disconnected_db))
        gen = WorkloadGenerator(disconnected_db, seed=2)
        if sizes[0] < sizes[-1]:
            n = sizes[0] + 1
            for q in gen.workload(15, n, sizes[-1]):
                comp = self._component_of(disconnected_db, q.tables[0])
                assert len(comp) >= n

    def test_connected_graph_sampling_unchanged(self, stats_db):
        """On a connected graph the component-aware path must not perturb
        the RNG draw sequence -- seeded workloads are a repo-wide
        determinism contract."""
        gen = WorkloadGenerator(stats_db, seed=13)
        assert len(gen._components) == 1
        assert gen.max_component_size == len(stats_db.table_names)
        qs = gen.workload(10, 2, 4)
        assert all(q.is_connected() for q in qs)


def gen_components(db):
    seen, comps = set(), []
    for start in db.table_names:
        if start in seen:
            continue
        comp, stack = {start}, [start]
        seen.add(start)
        while stack:
            t = stack.pop()
            for nb in db.neighbors(t):
                if nb not in seen:
                    seen.add(nb)
                    comp.add(nb)
                    stack.append(nb)
        comps.append(comp)
    return comps
