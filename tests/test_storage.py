"""Tests for columnar storage, catalog and synthetic data generators."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cardest import SamplingEstimator
from repro.storage import Column, Database, JoinEdge, Table
from repro.storage.generate import (
    correlated_column,
    fk_column,
    mixture_column,
    uniform_int_column,
    zipf_column,
)


class TestColumn:
    def test_basic(self):
        c = Column("x", np.array([1, 2, 3]))
        assert c.n_distinct == 3
        assert c.min == 1.0 and c.max == 3.0

    def test_key_uniqueness_enforced(self):
        with pytest.raises(ValueError):
            Column("id", np.array([1, 1, 2]), is_key=True)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            Column("x", np.zeros((2, 2)))

    def test_rejects_non_numeric(self):
        with pytest.raises(ValueError):
            Column("x", np.array(["a", "b"]))


class TestTable:
    def _table(self):
        return Table(
            "t",
            [
                Column("id", np.arange(5), is_key=True),
                Column("v", np.array([1, 1, 2, 2, 3])),
            ],
        )

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError):
            Table("t", [Column("a", np.zeros(3)), Column("b", np.zeros(2))])

    def test_duplicate_column_names_rejected(self):
        with pytest.raises(ValueError):
            Table("t", [Column("a", np.zeros(2)), Column("a", np.zeros(2))])

    def test_unknown_column_message(self):
        t = self._table()
        with pytest.raises(KeyError, match="available"):
            t.column("nope")

    def test_matrix_shape(self):
        t = self._table()
        assert t.matrix(t.column_names).shape == (5, 2)
        assert t.matrix(["v"]).shape == (5, 1)

    def test_append_rows(self):
        t = self._table()
        t.append_rows({"id": np.array([5, 6]), "v": np.array([9, 9])})
        assert t.n_rows == 7
        assert t.values("v")[-1] == 9

    def test_append_missing_column_rejected(self):
        t = self._table()
        with pytest.raises(ValueError, match="missing"):
            t.append_rows({"id": np.array([5])})

    def test_append_key_collision_rejected(self):
        t = self._table()
        with pytest.raises(ValueError, match="uniqueness"):
            t.append_rows({"id": np.array([0]), "v": np.array([1])})


class TestDatabase:
    def _db(self):
        a = Table("a", [Column("id", np.arange(3), is_key=True)])
        b = Table("b", [Column("a_id", np.array([0, 0, 1, 2]))])
        return Database("d", [a, b], [JoinEdge("b", "a_id", "a", "id")])

    def test_edges_lookup(self):
        db = self._db()
        assert db.neighbors("a") == {"b"}

    def test_validates_edges(self):
        a = Table("a", [Column("id", np.arange(3), is_key=True)])
        with pytest.raises(ValueError, match="unknown table"):
            Database("d", [a], [JoinEdge("a", "id", "zz", "id")])
        with pytest.raises(ValueError, match="unknown column"):
            Database("d", [a], [JoinEdge("a", "id", "a", "zz")])

    def test_duplicate_table_rejected(self):
        a = Table("a", [Column("id", np.arange(3), is_key=True)])
        a2 = Table("a", [Column("id", np.arange(3), is_key=True)])
        with pytest.raises(ValueError):
            Database("d", [a, a2], [])

    def test_edge_normalization(self):
        db = self._db()
        e = db.joins[0]
        assert e.normalized() == e

    def test_edge_other_and_column_of(self):
        e = JoinEdge("b", "a_id", "a", "id")
        assert e.other("b") == "a"
        assert e.column_of("a") == "id"
        with pytest.raises(ValueError):
            e.other("c")

    def test_total_rows(self):
        assert self._db().total_rows() == 7

    @settings(max_examples=60, deadline=None)
    @given(
        before=st.lists(st.integers(0, 3), min_size=4, max_size=4),
        appends=st.lists(
            st.tuples(st.integers(0, 4), st.integers(1, 3)), max_size=12
        ),
        attach_at=st.integers(0, 12),
    )
    def test_data_version_is_the_sum_of_its_tables(self, before, appends, attach_at):
        """Each database's counter equals the sum of its tables' versions:
        for tables two databases share, for a table attached to a live
        database, for a sample database over copies (``SamplingEstimator``'s)
        and for a deep copy, whose tables bump only the copy."""

        def table(name):
            return Table(name, [Column("v", np.arange(4)), Column("w", np.ones(4))])

        def append(t, n):
            t.append_rows({"v": np.arange(n), "w": np.zeros(n)})

        tables = [table(f"t{i}") for i in range(5)]
        for t, n in zip(tables, before):
            for _ in range(n):
                append(t, 1)
        left = Database("left", tables[:3], [])
        right = Database("right", tables[1:4], [])  # shares t1 and t2
        sample = SamplingEstimator(left, sample_rows=2)._sample_db
        clone = copy.deepcopy(right)
        dbs = [left, right, sample, clone]

        def check():
            for db in dbs:
                assert db.data_version == sum(
                    t.data_version for t in db.tables.values()
                ), db.name

        check()
        cloned = clone.data_version
        for step, (i, n) in enumerate(appends):
            if step == attach_at:
                left.add_table(tables[4])  # t4 may already carry appends
            append(tables[i], n)
            append(clone.tables[f"t{1 + i % 3}"], 1)
            check()
        assert clone.data_version == cloned + len(appends)
        assert sample.data_version == 0

    def test_add_table_rejects_a_taken_name(self):
        db = self._db()
        with pytest.raises(ValueError, match="duplicate table"):
            db.add_table(Table("a", [Column("x", np.arange(2))]))


class TestGenerators:
    def test_zipf_skew_concentrates(self):
        rng = np.random.default_rng(0)
        flat = zipf_column(5000, 20, 0.0, rng)
        skewed = zipf_column(5000, 20, 2.0, rng)
        top_flat = (flat == 0).mean()
        top_skewed = (skewed == 0).mean()
        assert top_skewed > top_flat * 3

    def test_zipf_domain_respected(self):
        vals = zipf_column(1000, 7, 1.0, np.random.default_rng(1))
        assert vals.min() >= 0 and vals.max() < 7

    def test_correlated_column_strength(self):
        rng = np.random.default_rng(2)
        driver = rng.integers(0, 10, 5000)
        strong = correlated_column(driver, 10, 1.0, rng)
        weak = correlated_column(driver, 10, 0.0, rng)
        # Functional dependency: same driver value -> same output.
        for v in range(10):
            outs = set(strong[driver == v].tolist())
            assert len(outs) == 1
        # Independence: many outputs per driver value.
        assert len(set(weak[driver == 0].tolist())) > 3

    def test_correlation_bounds_checked(self):
        with pytest.raises(ValueError):
            correlated_column(np.zeros(5, int), 3, 1.5, np.random.default_rng(0))

    def test_fk_column_references_parents(self):
        rng = np.random.default_rng(3)
        parents = np.arange(100, 200)
        fks = fk_column(1000, parents, 1.5, rng)
        assert set(fks.tolist()) <= set(parents.tolist())

    def test_fk_skew(self):
        rng = np.random.default_rng(4)
        fks = fk_column(5000, np.arange(50), 1.8, rng)
        counts = np.bincount(fks, minlength=50)
        assert counts.max() > 5 * counts.mean()

    def test_mixture_column_modes(self):
        rng = np.random.default_rng(5)
        vals = mixture_column(4000, [(0.5, 0.0, 0.5), (0.5, 100.0, 0.5)], rng)
        near_zero = (np.abs(vals) < 5).mean()
        assert 0.3 < near_zero < 0.7

    def test_uniform_int_bounds(self):
        vals = uniform_int_column(1000, 5, 9, np.random.default_rng(6))
        assert vals.min() >= 5 and vals.max() <= 9


class TestDatasets:
    @pytest.mark.parametrize("fixture", ["stats_db", "imdb_db", "tpch_db"])
    def test_schema_integrity(self, fixture, request):
        db = request.getfixturevalue(fixture)
        assert len(db.tables) >= 5
        for e in db.joins:
            left = db.table(e.left_table).values(e.left_column)
            right = db.table(e.right_table).values(e.right_column)
            # FK side values must exist on the key side.
            if db.table(e.right_table).column(e.right_column).is_key:
                assert set(np.unique(left)) <= set(np.unique(right))

    def test_determinism(self):
        from repro.storage import make_stats_lite

        a = make_stats_lite(0.2, seed=5)
        b = make_stats_lite(0.2, seed=5)
        assert np.array_equal(
            a.table("posts").values("score"), b.table("posts").values("score")
        )

    def test_scale_changes_size(self):
        from repro.storage import make_imdb_lite

        small = make_imdb_lite(0.2)
        big = make_imdb_lite(0.5)
        assert big.total_rows() > small.total_rows()

    def test_stats_has_correlations(self, stats_db):
        # The generator builds dependencies through a *random* value map,
        # so measure mutual information, not (monotone) Pearson correlation.
        from repro.ml.chowliu import mutual_information

        posts = stats_db.table("posts")
        dependent = mutual_information(
            posts.values("score").astype(int), posts.values("view_count").astype(int)
        )
        rng = np.random.default_rng(0)
        shuffled = mutual_information(
            posts.values("score").astype(int),
            rng.permutation(posts.values("view_count")).astype(int),
        )
        assert dependent > 3 * shuffled
