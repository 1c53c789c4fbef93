"""Tests for the SSB dataset, the theory helpers and the cost formulas."""

import numpy as np
import pytest

from repro.cardest import EnsembleEstimator, GBDTQueryEstimator, MLPQueryEstimator
from repro.cardest.theory import interval_coverage, pac_learning_curve
from repro.engine import CardinalityExecutor, ExecutionSimulator
from repro.engine.cost_formulas import CostConstants, OperatorCosts
from repro.optimizer import Optimizer
from repro.sql import WorkloadGenerator
from repro.storage import make_ssb_lite


@pytest.fixture(scope="module")
def ssb_db():
    return make_ssb_lite()


class TestSSB:
    def test_star_shape(self, ssb_db):
        # Every join edge touches the fact table: the defining SSB shape.
        for e in ssb_db.joins:
            assert "lineorder" in (e.left_table, e.right_table)

    def test_fk_integrity(self, ssb_db):
        for e in ssb_db.joins:
            fk = ssb_db.table(e.left_table).values(e.left_column)
            pk = ssb_db.table(e.right_table).values(e.right_column)
            assert set(np.unique(fk)) <= set(np.unique(pk))

    def test_full_pipeline_runs(self, ssb_db):
        opt = Optimizer(ssb_db)
        sim = ExecutionSimulator(ssb_db)
        gen = WorkloadGenerator(ssb_db, seed=5)
        for q in gen.workload(10, 2, 5, require_predicate=True):
            res = sim.execute(opt.plan(q))
            assert res.latency_ms > 0

    def test_deterministic(self):
        a = make_ssb_lite()
        b = make_ssb_lite()
        assert np.array_equal(
            a.table("lineorder").values("revenue"),
            b.table("lineorder").values("revenue"),
        )


class TestTheory:
    def test_pac_learning_curve_shrinks(self, stats_db):
        gen = WorkloadGenerator(stats_db, seed=160)
        train = gen.single_table_workload("posts", 300)
        test = WorkloadGenerator(stats_db, seed=161).single_table_workload("posts", 40)
        curve = pac_learning_curve(
            stats_db,
            lambda: GBDTQueryEstimator(stats_db),
            train,
            test,
            sample_sizes=[30, 100, 300],
        )
        sizes = [n for n, _ in curve]
        errors = [e for _, e in curve]
        assert sizes == [30, 100, 300]
        # PAC shape: the largest sample is at least as good as the smallest.
        assert errors[-1] <= errors[0] * 1.05

    def test_pac_curve_validates_sizes(self, stats_db):
        with pytest.raises(ValueError):
            pac_learning_curve(stats_db, lambda: None, [], [], [10])

    def test_interval_coverage_reasonable(self, stats_db, stats_train_data):
        queries, cards = stats_train_data
        members = [
            MLPQueryEstimator(stats_db, epochs=25, seed=s).fit(queries, cards)
            for s in range(4)
        ]
        ens = EnsembleEstimator(stats_db, members)
        executor = CardinalityExecutor(stats_db)
        test = WorkloadGenerator(stats_db, seed=162).workload(
            40, 1, 3, require_predicate=True
        )
        truth = [executor.cardinality(q) for q in test]
        coverage = interval_coverage(ens, test, truth)
        # Ensembles of few members under-cover; [55]'s finding.  We only
        # require the interval to be informative, not perfectly calibrated.
        assert 0.2 <= coverage <= 1.0

    def test_interval_coverage_validates(self, stats_db):
        ens = object.__new__(EnsembleEstimator)
        with pytest.raises(ValueError):
            interval_coverage(ens, [], [])


class TestCostFormulas:
    def setup_method(self):
        self.ops = OperatorCosts(CostConstants())

    def test_seq_scan_monotone_in_rows(self):
        assert self.ops.seq_scan(1000, 1) < self.ops.seq_scan(10_000, 1)

    def test_seq_scan_monotone_in_predicates(self):
        assert self.ops.seq_scan(1000, 1) <= self.ops.seq_scan(1000, 3)

    def test_index_scan_beats_seq_when_selective(self):
        seq = self.ops.seq_scan(100_000, 1)
        idx = self.ops.index_scan(100_000, 50, 1)
        assert idx < seq

    def test_index_scan_loses_when_unselective(self):
        seq = self.ops.seq_scan(100_000, 1)
        idx = self.ops.index_scan(100_000, 90_000, 1)
        assert idx > seq

    def test_hash_join_monotone(self):
        a = self.ops.hash_join(1000, 1000, 100)
        b = self.ops.hash_join(10_000, 1000, 100)
        assert b > a

    def test_indexed_nlj_beats_naive_for_small_outer(self):
        indexed = self.ops.nested_loop_indexed(10, 100_000, 50)
        naive = self.ops.nested_loop_naive(10, 100_000, 50)
        assert indexed < naive

    def test_naive_nlj_quadratic_blowup(self):
        small = self.ops.nested_loop_naive(100, 100, 10)
        big = self.ops.nested_loop_naive(10_000, 10_000, 10)
        assert big > small * 1000

    def test_merge_join_includes_sort_cost(self):
        merge = self.ops.merge_join(100_000, 100_000, 10)
        hash_ = self.ops.hash_join(100_000, 100_000, 10)
        assert merge > hash_  # sorting both sides dominates

    def test_all_costs_nonnegative(self):
        for value in (
            self.ops.seq_scan(0, 0),
            self.ops.index_scan(0, 0, 0),
            self.ops.hash_join(0, 0, 0),
            self.ops.nested_loop_indexed(0, 0, 0),
            self.ops.nested_loop_naive(0, 0, 0),
            self.ops.merge_join(0, 0, 0),
        ):
            assert value >= 0.0
