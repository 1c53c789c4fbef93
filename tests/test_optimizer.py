"""Tests for statistics, the traditional estimator, costing and planning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interfaces import CardinalityEstimator, InjectedCardinalities, ScaledCardinalities
from repro.engine import JoinMethod, ScanMethod
from repro.engine.plans import ScanNode
from repro.optimizer import (
    DatabaseStats,
    HintSet,
    Optimizer,
    TraditionalCardinalityEstimator,
)
from repro.optimizer.statistics import ColumnStats
from repro.sql import ColumnRef, Op, Predicate, Query, WorkloadGenerator


class TestColumnStats:
    def test_eq_selectivity_mcv_exact(self):
        values = np.array([1] * 90 + [2] * 10)
        stats = ColumnStats.build(values)
        assert stats.eq_selectivity(1.0) == pytest.approx(0.9)
        assert stats.eq_selectivity(2.0) == pytest.approx(0.1)

    def test_eq_selectivity_unseen_value(self):
        values = np.arange(1000)
        stats = ColumnStats.build(values)
        sel = stats.eq_selectivity(123.0)
        assert 0.0 < sel < 0.01

    def test_range_selectivity_bounds(self):
        values = np.random.default_rng(0).integers(0, 100, 1000)
        stats = ColumnStats.build(values)
        assert stats.range_selectivity(-10, 1000) == pytest.approx(1.0, abs=0.01)
        assert stats.range_selectivity(200, 300) == pytest.approx(0.0, abs=0.01)

    @given(st.integers(0, 99), st.integers(0, 99))
    @settings(max_examples=30, deadline=None)
    def test_range_selectivity_close_to_truth_uniform(self, a, b):
        lo, hi = min(a, b), max(a, b)
        values = np.arange(100).repeat(10)
        stats = ColumnStats.build(values)
        true_sel = ((values >= lo) & (values <= hi)).mean()
        assert stats.range_selectivity(lo, hi) == pytest.approx(true_sel, abs=0.08)

    def test_empty_column(self):
        stats = ColumnStats.build(np.zeros(0))
        assert stats.eq_selectivity(1.0) == 0.0
        assert stats.range_selectivity(0, 1) == 0.0


class TestSelectivityDomainEdges:
    """S2/S3/S4 regressions: out-of-domain literals, open endpoints and
    degenerate histogram buckets at the domain edge."""

    def test_eq_out_of_domain_is_zero(self):
        values = np.arange(1000)
        stats = ColumnStats.build(values)
        assert stats.eq_selectivity(-5.0) == 0.0
        assert stats.eq_selectivity(1000.5) == 0.0
        assert stats.eq_selectivity(500.0) > 0.0

    def test_in_list_ignores_out_of_domain_members(self, stats_db):
        est = TraditionalCardinalityEstimator(stats_db)
        ref = ColumnRef("users", "reputation")

        def q(vals):
            return Query(
                ("users",), (), (Predicate(ref, Op.IN, frozenset(vals)),)
            )

        assert est.estimate(q({5.0, 1e12})) == pytest.approx(
            est.estimate(q({5.0}))
        )
        assert est.estimate(q({1e12, -1e12})) == 0.0

    def test_degenerate_bucket_open_endpoint(self):
        from repro.oracle.fixtures import make_probe_table

        skew = make_probe_table().values("skew")
        stats = ColumnStats.build(skew)
        point_mass = float((skew == skew.max()).mean())
        assert point_mass > 0.04  # the fixture really has mass at the max
        closed = stats.range_selectivity(5000, np.inf)
        assert closed == pytest.approx(point_mass, abs=0.01)
        assert stats.range_selectivity(5000, np.inf, inclusive_lo=False) == 0.0
        le = stats.range_selectivity(-np.inf, 5000)
        lt = stats.range_selectivity(-np.inf, 5000, inclusive_hi=False)
        assert le - lt == pytest.approx(point_mass, abs=0.01)

    def test_mcv_open_endpoint(self):
        values = np.array([1.0] * 90 + [2.0] * 10)
        stats = ColumnStats.build(values)
        assert stats.range_selectivity(1.0, 2.0) == pytest.approx(1.0)
        assert stats.range_selectivity(
            1.0, 2.0, inclusive_lo=False
        ) == pytest.approx(0.1)
        assert stats.range_selectivity(
            1.0, 2.0, inclusive_hi=False
        ) == pytest.approx(0.9)

    def test_open_point_interval_is_empty(self):
        stats = ColumnStats.build(np.arange(100))
        assert stats.range_selectivity(5, 5, inclusive_lo=False) == 0.0
        assert stats.range_selectivity(5, 5, inclusive_hi=False) == 0.0

    def test_strict_comparison_at_large_magnitude(self):
        # S4: at ~2e9 a 1e-9 epsilon shift vanishes in float64, so only
        # true open-endpoint bounds can distinguish > max from >= max.
        from repro.oracle.fixtures import make_probe_table
        from repro.storage import Database

        db = Database("probe_db", [make_probe_table()], [])
        est = TraditionalCardinalityEstimator(db)
        ref = ColumnRef("probe", "big")

        def q(op, value):
            return Query(("probe",), (), (Predicate(ref, op, value),))

        assert est.estimate(q(Op.GT, 2_000_000_000.0)) == 0.0
        assert est.estimate(q(Op.GE, 2_000_000_000.0)) > 0.0
        assert est.estimate(q(Op.LT, 1_999_999_000.0)) == 0.0


class TestDatabaseStats:
    def test_build_covers_all(self, stats_db):
        stats = DatabaseStats.build(stats_db)
        for t in stats_db.table_names:
            for c in stats_db.table(t).column_names:
                assert stats.table(t).column(c).n_rows == stats_db.table(t).n_rows

    def test_unknown_lookups(self, stats_db):
        stats = DatabaseStats.build(stats_db)
        with pytest.raises(KeyError):
            stats.table("nope")
        with pytest.raises(KeyError):
            stats.table("posts").column("nope")

    def test_refresh_tracks_appends(self):
        from repro.storage import make_stats_lite

        db = make_stats_lite(0.2, seed=1)
        stats = DatabaseStats.build(db)
        before = stats.table("posts").n_rows
        from repro.bench import apply_drift

        apply_drift(db, fraction=0.5, seed=0)
        assert stats.table("posts").n_rows == before  # stale until refresh
        stats.refresh(db, ["posts"])
        assert stats.table("posts").n_rows > before


class TestTraditionalEstimator:
    def test_single_table_accuracy_reasonable(self, stats_db, stats_executor):
        est = TraditionalCardinalityEstimator(stats_db)
        gen = WorkloadGenerator(stats_db, seed=11)
        errs = []
        workload = gen.single_table_workload("users", 90)
        for q in [q for q in workload if len(q.predicates) == 1]:
            true = stats_executor.cardinality(q)
            guess = est.estimate(q)
            errs.append(max(guess, 1) / max(true, 1))
        # One-predicate single-table estimates should be decent.
        assert np.median(errs) < 3.0

    def test_join_estimate_positive(self, stats_db):
        est = TraditionalCardinalityEstimator(stats_db)
        gen = WorkloadGenerator(stats_db, seed=12)
        q = gen.random_query(2, 3)
        assert est.estimate(q) >= 0.0

    def test_correlated_predicates_underestimated(self):
        # The classic failure mode motivating learned estimators: under a
        # functional dependency y = f(x), the independence assumption
        # multiplies two selectivities where the truth is just one.
        from repro.storage import Column, Database, Table

        rng = np.random.default_rng(0)
        x = rng.integers(0, 10, 2000)
        y = (x * 7 + 3) % 10  # deterministic function of x
        db = Database(
            "corr", [Table("t", [Column("x", x), Column("y", y)])], []
        )
        est = TraditionalCardinalityEstimator(db)
        q = Query(
            ("t",),
            (),
            (
                Predicate(ColumnRef("t", "x"), Op.EQ, 2.0),
                Predicate(ColumnRef("t", "y"), Op.EQ, float((2 * 7 + 3) % 10)),
            ),
        )
        true = float((x == 2).sum())  # y predicate is implied
        assert est.estimate(q) < true * 0.5


class TestHintSet:
    def test_default_enables_all(self):
        h = HintSet.default()
        assert len(h.join_methods) == 3
        assert len(h.scan_methods) == 2

    def test_cannot_disable_all_joins(self):
        with pytest.raises(ValueError):
            HintSet(
                enable_hash_join=False,
                enable_nested_loop=False,
                enable_merge_join=False,
            )

    def test_cannot_disable_all_scans(self):
        with pytest.raises(ValueError):
            HintSet(enable_seq_scan=False, enable_index_scan=False)

    def test_bao_arms_valid_and_distinct(self):
        arms = HintSet.bao_arms()
        assert len(arms) == len(set(arms))
        assert arms[0] == HintSet.default()

    def test_name_readable(self):
        assert HintSet.default().name() == "hash+nlj+merge/seq+idx"


class TestPlanner:
    def test_dp_at_most_greedy_cost(self, stats_optimizer, stats_db):
        gen = WorkloadGenerator(stats_db, seed=14)
        for q in gen.workload(15, 2, 5, require_predicate=True):
            dp = stats_optimizer.plan(q, algorithm="dp")
            greedy = stats_optimizer.plan(q, algorithm="greedy")
            assert stats_optimizer.cost(dp) <= stats_optimizer.cost(greedy) + 1e-6

    def test_left_deep_shape(self, stats_optimizer, stats_db):
        gen = WorkloadGenerator(stats_db, seed=15)
        q = gen.random_query(3, 5)
        plan = stats_optimizer.plan(q, algorithm="left_deep")
        for node in plan.join_nodes():
            assert isinstance(node.right, ScanNode)

    def test_plan_covers_query(self, stats_optimizer, stats_db):
        gen = WorkloadGenerator(stats_db, seed=16)
        for q in gen.workload(10, 1, 5):
            plan = stats_optimizer.plan(q)
            assert plan.root.tables == frozenset(q.tables)

    def test_hints_respected(self, stats_optimizer, stats_db):
        gen = WorkloadGenerator(stats_db, seed=17)
        hints = HintSet(enable_hash_join=False, enable_merge_join=False)
        for q in gen.workload(8, 2, 4):
            plan = stats_optimizer.plan(q, hints=hints)
            for node in plan.join_nodes():
                assert node.method is JoinMethod.NESTED_LOOP

    def test_index_only_hint_falls_back_on_predicate_free_table(
        self, stats_optimizer, stats_db
    ):
        q = Query(("users",))
        plan = stats_optimizer.plan(q, hints=HintSet(enable_seq_scan=False))
        # No predicate -> no index scan possible -> seq scan fallback.
        assert plan.root.method is ScanMethod.SEQ

    def test_unknown_algorithm(self, stats_optimizer, stats_db):
        q = WorkloadGenerator(stats_db, seed=18).random_query(1, 2)
        with pytest.raises(ValueError):
            stats_optimizer.plan(q, algorithm="quantum")

    def test_estimator_swap_changes_some_plans(self, stats_db, stats_executor):
        opt = Optimizer(stats_db)

        class Oracle(CardinalityEstimator):
            def estimate(self, query):
                return stats_executor.cardinality(query)

        oracle_opt = opt.with_estimator(Oracle())
        gen = WorkloadGenerator(stats_db, seed=19)
        changed = 0
        for q in gen.workload(25, 2, 5, require_predicate=True):
            if opt.plan(q).signature() != oracle_opt.plan(q).signature():
                changed += 1
        assert changed > 0

    def test_single_table_plan_is_scan(self, stats_optimizer, stats_db):
        q = WorkloadGenerator(stats_db, seed=20).single_table_workload("posts", 1)[0]
        plan = stats_optimizer.plan(q)
        assert isinstance(plan.root, ScanNode)


class TestEstimatorWrappers:
    def test_injection_overrides(self, stats_db):
        base = TraditionalCardinalityEstimator(stats_db)
        wrapped = InjectedCardinalities(base)
        q = Query(("users",))
        wrapped.inject(q, 42.0)
        assert wrapped.estimate(q) == 42.0

    def test_injection_fallback(self, stats_db):
        base = TraditionalCardinalityEstimator(stats_db)
        wrapped = InjectedCardinalities(base)
        q = Query(("users",))
        assert wrapped.estimate(q) == base.estimate(q)

    def test_injection_rejects_negative(self, stats_db):
        wrapped = InjectedCardinalities(TraditionalCardinalityEstimator(stats_db))
        with pytest.raises(ValueError):
            wrapped.inject(Query(("users",)), -1.0)

    def test_injection_clear(self, stats_db):
        base = TraditionalCardinalityEstimator(stats_db)
        wrapped = InjectedCardinalities(base)
        q = Query(("users",))
        wrapped.inject(q, 42.0)
        wrapped.clear()
        assert wrapped.estimate(q) == base.estimate(q)

    def test_scaling_grows_with_join_count(self, stats_db):
        base = TraditionalCardinalityEstimator(stats_db)
        scaled = ScaledCardinalities(base, 10.0)
        gen = WorkloadGenerator(stats_db, seed=21)
        q3 = next(q for q in gen.workload(50, 3, 3) if q.n_tables == 3)
        assert scaled.estimate(q3) == pytest.approx(base.estimate(q3) * 100.0)

    def test_scaling_rejects_nonpositive(self, stats_db):
        base = TraditionalCardinalityEstimator(stats_db)
        with pytest.raises(ValueError):
            ScaledCardinalities(base, 0.0)


class TestPlanCoster:
    def test_cost_additive_over_nodes(self, stats_optimizer, stats_db):
        gen = WorkloadGenerator(stats_db, seed=22)
        q = gen.random_query(2, 4, require_predicate=True)
        plan = stats_optimizer.plan(q)
        total = stats_optimizer.cost(plan)
        assert total > 0

    def test_exact_cards_make_cost_match_simulator_with_same_constants(
        self, stats_db, stats_executor
    ):
        from repro.engine import ExecutionSimulator, SimulatorConfig
        from repro.engine.cost_formulas import TRUE_HARDWARE_CONSTANTS

        class Oracle(CardinalityEstimator):
            def estimate(self, query):
                return stats_executor.cardinality(query)

        opt = Optimizer(stats_db, estimator=Oracle(), constants=TRUE_HARDWARE_CONSTANTS)
        sim = ExecutionSimulator(stats_db)
        q = WorkloadGenerator(stats_db, seed=23).random_query(2, 3, require_predicate=True)
        plan = opt.plan(q)
        latency = opt.cost(plan) * SimulatorConfig.ms_per_cost_unit
        assert latency == pytest.approx(sim.execute(plan).latency_ms, rel=1e-9)
