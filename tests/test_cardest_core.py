"""Tests for estimator base utilities, binning and featurization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cardest.base import BaseCardinalityEstimator, q_error, q_error_summary
from repro.cardest.binning import ColumnBinner, DiscretizedTable, predicate_bins
from repro.cardest.featurize import FlatQueryFeaturizer, MSCNFeaturizer
from repro.cardest.joinutil import UnfilteredJoinSizes, uniform_join_estimate
from repro.sql import ColumnRef, Op, Predicate, Query, WorkloadGenerator


class TestQError:
    def test_symmetric(self):
        assert q_error(10, 100) == q_error(100, 10) == 10.0

    def test_floor_at_one(self):
        assert q_error(0, 0) == 1.0
        assert q_error(0.5, 0.1) == 1.0

    @given(st.floats(0, 1e6), st.floats(0, 1e6))
    @settings(max_examples=50, deadline=None)
    def test_at_least_one(self, a, b):
        assert q_error(a, b) >= 1.0

    def test_summary_keys(self):
        s = q_error_summary(np.array([1.0, 10.0]), np.array([1.0, 1.0]))
        assert set(s) == {"p50", "p90", "p99", "max", "gmq"}
        assert s["max"] == 10.0

    def test_summary_rejects_mismatch(self):
        with pytest.raises(ValueError):
            q_error_summary(np.ones(2), np.ones(3))


class TestBaseEstimator:
    def test_clamps_to_upper_bound(self, stats_db):
        class Wild(BaseCardinalityEstimator):
            def _estimate(self, query):
                return 1e30

        q = Query(("users",))
        upper = stats_db.table("users").n_rows
        assert Wild(stats_db).estimate(q) == upper

    def test_clamps_negative_to_zero(self, stats_db):
        class Negative(BaseCardinalityEstimator):
            def _estimate(self, query):
                return -5.0

        assert Negative(stats_db).estimate(Query(("users",))) == 0.0

    def test_nonfinite_becomes_upper(self, stats_db):
        class Nan(BaseCardinalityEstimator):
            def _estimate(self, query):
                return float("nan")

        q = Query(("users",))
        assert Nan(stats_db).estimate(q) == stats_db.table("users").n_rows


class TestColumnBinner:
    def test_exact_for_small_domain(self):
        binner = ColumnBinner(np.array([1, 2, 5, 5, 5]), max_bins=32)
        assert binner.kind == "exact"
        assert binner.n_bins == 3
        assert list(binner.bin_of(np.array([1, 2, 5]))) == [0, 1, 2]

    def test_equidepth_for_large_domain(self):
        values = np.random.default_rng(0).normal(size=5000)
        binner = ColumnBinner(values, max_bins=16)
        assert binner.kind == "equidepth"
        codes = binner.bin_of(values)
        counts = np.bincount(codes, minlength=binner.n_bins)
        # Equi-depth: no bin should be wildly off the mean occupancy.
        assert counts.max() < counts.mean() * 3

    def test_eq_predicate_exact_domain(self):
        binner = ColumnBinner(np.array([1, 2, 5]), max_bins=32)
        bins, factor = binner.bins_for_predicate(
            Predicate(ColumnRef("t", "c"), Op.EQ, 2.0)
        )
        assert list(bins) == [1]
        assert factor == 1.0

    def test_eq_predicate_missing_value(self):
        binner = ColumnBinner(np.array([1, 2, 5]), max_bins=32)
        bins, _ = binner.bins_for_predicate(
            Predicate(ColumnRef("t", "c"), Op.EQ, 3.0)
        )
        assert bins.size == 0

    def test_range_predicate_covers(self):
        binner = ColumnBinner(np.array([1, 2, 3, 4, 5]), max_bins=32)
        bins, _ = binner.bins_for_predicate(
            Predicate(ColumnRef("t", "c"), Op.BETWEEN, (2.0, 4.0))
        )
        assert list(bins) == [1, 2, 3]

    def test_eq_correction_in_coarse_bins(self):
        values = np.arange(10_000)
        binner = ColumnBinner(values, max_bins=8)
        bins, factor = binner.bins_for_predicate(
            Predicate(ColumnRef("t", "c"), Op.EQ, 1234.0)
        )
        assert bins.size == 1
        assert 0.0 < factor < 0.01  # one value out of ~1250 in the bin

    @given(st.integers(0, 999))
    @settings(max_examples=30, deadline=None)
    def test_bin_of_range_covers_value(self, v):
        values = np.random.default_rng(1).integers(0, 1000, 4000)
        binner = ColumnBinner(values, max_bins=20)
        pred = Predicate(ColumnRef("t", "c"), Op.BETWEEN, (float(v), float(v)))
        bins, _ = binner.bins_for_predicate(pred)
        assert int(binner.bin_of(np.array([v]))[0]) in set(bins.tolist())


class TestDiscretizedTable:
    def test_build_and_predicates(self, stats_db):
        disc = DiscretizedTable.build(stats_db.table("users"))
        assert disc.codes.shape == (
            stats_db.table("users").n_rows,
            len(disc.column_names),
        )
        allowed, corr = predicate_bins(
            disc, (Predicate(ColumnRef("users", "reputation"), Op.LE, 3.0),)
        )
        idx = disc.column_index("reputation")
        assert allowed[idx] is not None
        assert corr > 0

    def test_conflicting_predicates_intersect(self, stats_db):
        disc = DiscretizedTable.build(stats_db.table("users"))
        allowed, _ = predicate_bins(
            disc,
            (
                Predicate(ColumnRef("users", "reputation"), Op.LE, 3.0),
                Predicate(ColumnRef("users", "reputation"), Op.GE, 10.0),
            ),
        )
        idx = disc.column_index("reputation")
        assert allowed[idx].size == 0

    def test_unknown_column(self, stats_db):
        disc = DiscretizedTable.build(stats_db.table("users"))
        with pytest.raises(KeyError):
            disc.column_index("nope")


class TestFlatFeaturizer:
    def test_dim_and_determinism(self, stats_db):
        f = FlatQueryFeaturizer(stats_db)
        gen = WorkloadGenerator(stats_db, seed=30)
        q = gen.random_query(2, 4, require_predicate=True)
        a, b = f.featurize(q), f.featurize(q)
        assert a.shape == (f.dim,)
        assert np.array_equal(a, b)

    def test_tables_encoded(self, stats_db):
        f = FlatQueryFeaturizer(stats_db)
        q = Query(("users",))
        vec = f.featurize(q)
        pos = f.index.table_pos["users"]
        assert vec[pos] == 1.0
        assert vec[: len(f.index.tables)].sum() == 1.0

    def test_predicate_ranges_normalized(self, stats_db):
        f = FlatQueryFeaturizer(stats_db)
        q = Query(
            ("users",),
            (),
            (Predicate(ColumnRef("users", "reputation"), Op.LE, 5.0),),
        )
        vec = f.featurize(q)
        assert np.all(vec >= 0.0) and np.all(vec <= 1.0)

    def test_distinguishes_ranges(self, stats_db):
        f = FlatQueryFeaturizer(stats_db)
        q1 = Query(("users",), (), (Predicate(ColumnRef("users", "reputation"), Op.LE, 2.0),))
        q2 = Query(("users",), (), (Predicate(ColumnRef("users", "reputation"), Op.LE, 20.0),))
        assert not np.array_equal(f.featurize(q1), f.featurize(q2))


class TestMSCNFeaturizer:
    def test_set_shapes(self, stats_db):
        f = MSCNFeaturizer(stats_db, seed=0)
        gen = WorkloadGenerator(stats_db, seed=31)
        q = gen.random_query(2, 3, require_predicate=True)
        sets = f.featurize(q)
        assert sets["tables"].shape == (q.n_tables, f.table_dim)
        assert sets["joins"].shape[1] == f.join_dim
        assert sets["preds"].shape[1] == f.pred_dim

    def test_bitmap_reflects_predicates(self, stats_db):
        f = MSCNFeaturizer(stats_db, seed=0)
        all_rows = Query(("users",))
        none_rows = Query(
            ("users",),
            (),
            (Predicate(ColumnRef("users", "reputation"), Op.GT, 1e9),),
        )
        bits_all = f.featurize(all_rows)["tables"][0][-f.sample_size :]
        bits_none = f.featurize(none_rows)["tables"][0][-f.sample_size :]
        assert bits_all.sum() > bits_none.sum()
        assert bits_none.sum() == 0

    def test_drop_bitmaps(self, stats_db):
        f = MSCNFeaturizer(stats_db, seed=0)
        q = Query(
            ("users",),
            (),
            (Predicate(ColumnRef("users", "reputation"), Op.GT, 1e9),),
        )
        bits = f.featurize(q, drop_bitmaps=True)["tables"][0][-f.sample_size :]
        assert bits.sum() == f.sample_size

    def test_mask_rate_drops_predicates(self, stats_db):
        f = MSCNFeaturizer(stats_db, seed=0)
        gen = WorkloadGenerator(stats_db, seed=32)
        q = gen.single_table_workload("users", 1)[0]
        rng = np.random.default_rng(0)
        masked = f.featurize(q, mask_rate=1.0, rng=rng)
        assert masked["preds"].shape[0] == 0


class TestJoinUtil:
    def test_unfiltered_join_size_exact(self, stats_db, stats_executor):
        sizes = UnfilteredJoinSizes(stats_db)
        gen = WorkloadGenerator(stats_db, seed=33)
        q = gen.random_query(2, 3, require_predicate=True)
        expected = stats_executor.cardinality(Query(q.tables, q.joins, ()))
        assert sizes.size(q) == expected

    def test_memoized(self, stats_db):
        sizes = UnfilteredJoinSizes(stats_db)
        gen = WorkloadGenerator(stats_db, seed=34)
        q = gen.random_query(2, 3)
        sizes.size(q)
        assert len(sizes._cache) == 1
        sizes.size(q)
        assert len(sizes._cache) == 1
        sizes.invalidate()
        assert len(sizes._cache) == 0

    def test_uniform_estimate_composition(self, stats_db):
        sizes = UnfilteredJoinSizes(stats_db)
        gen = WorkloadGenerator(stats_db, seed=35)
        q = gen.random_query(2, 3)
        est = uniform_join_estimate(q, sizes, lambda t: 0.5)
        assert est == pytest.approx(sizes.size(q) * 0.5 ** q.n_tables)

    def test_selectivity_clamped(self, stats_db):
        sizes = UnfilteredJoinSizes(stats_db)
        q = Query(("users",))
        est = uniform_join_estimate(q, sizes, lambda t: 2.0)
        assert est == sizes.size(q)
