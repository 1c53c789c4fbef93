"""Tests for the shared columnar kernels (``repro.engine.kernels``).

Every kernel is cross-checked against a dict/loop reference on random
inputs: the kernels are the hot path of both the executor and the plan
interpreter, so a silent off-by-one here corrupts every count downstream.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.kernels import (
    _DENSE_SLOTS_FLOOR,
    _DENSE_SLOTS_PER_KEY,
    _dense_grouped_sums,
    GroupIndex,
    KeyIndexCache,
    compile_predicates,
    expand_matches,
    grouped_sums,
    is_strictly_increasing,
    lookup_sums,
    match_counts,
)
from repro.sql import ColumnRef, Op, OrPredicate, Predicate
from repro.storage import Column, Table
from tests.executor_reference import reference_grouped_sums


def naive_groups(keys):
    """key -> list of positions, insertion-ordered within each key."""
    groups = {}
    for i, k in enumerate(keys.tolist()):
        groups.setdefault(k, []).append(i)
    return groups


class TestGroupIndex:
    def test_matches_naive_grouping(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            keys = rng.integers(0, 15, size=rng.integers(1, 200))
            index = GroupIndex.from_keys(keys)
            groups = naive_groups(keys)
            assert index.uniq.tolist() == sorted(groups)
            for slot, key in enumerate(index.uniq.tolist()):
                s, n = int(index.start[slot]), int(index.length[slot])
                # Stable sort: group members stay in original row order.
                assert index.perm[s : s + n].tolist() == groups[key]

    def test_empty_keys(self):
        index = GroupIndex.from_keys(np.zeros(0, dtype=np.int64))
        assert index.uniq.size == 0
        assert index.perm.size == 0

    def test_single_group(self):
        index = GroupIndex.from_keys(np.full(7, 3.0))
        assert index.uniq.size == 1
        assert int(index.length[0]) == 7

    def test_float_keys(self):
        keys = np.array([2.5, 1.0, 2.5, -3.0])
        index = GroupIndex.from_keys(keys)
        assert index.uniq.tolist() == [-3.0, 1.0, 2.5]
        assert index.length.tolist() == [1, 1, 2]


class TestMatchExpand:
    def test_counts_match_naive(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            build = rng.integers(0, 10, size=rng.integers(0, 100))
            probe = rng.integers(-2, 12, size=rng.integers(1, 80))
            index = GroupIndex.from_keys(build)
            _, counts = match_counts(index, probe)
            groups = naive_groups(build)
            expected = [len(groups.get(k, ())) for k in probe.tolist()]
            assert counts.tolist() == expected

    def test_expand_matches_probe_order(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            build = rng.integers(0, 8, size=rng.integers(0, 60))
            probe = rng.integers(-1, 10, size=rng.integers(1, 40))
            index = GroupIndex.from_keys(build)
            pos, counts = match_counts(index, probe)
            expanded = expand_matches(index, pos, counts)
            groups = naive_groups(build)
            expected = [
                p for k in probe.tolist() for p in groups.get(k, ())
            ]
            assert expanded.tolist() == expected

    def test_probe_outside_key_range(self):
        # Values below uniq[0] and above uniq[-1] exercise the clip path.
        index = GroupIndex.from_keys(np.array([5, 5, 9]))
        _, counts = match_counts(index, np.array([1, 5, 9, 100]))
        assert counts.tolist() == [0, 2, 1, 0]

    def test_empty_build_side(self):
        index = GroupIndex.from_keys(np.zeros(0, dtype=np.int64))
        pos, counts = match_counts(index, np.array([1, 2, 3]))
        assert counts.tolist() == [0, 0, 0]
        assert expand_matches(index, pos, counts).size == 0


class TestGroupedSums:
    def test_matches_dict_sums(self):
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 6, size=200)
        weights = rng.integers(1, 50, size=200).astype(np.int64)
        uniq, sums = grouped_sums(keys, weights)
        expected = {}
        for k, w in zip(keys.tolist(), weights.tolist()):
            expected[k] = expected.get(k, 0) + w
        assert dict(zip(uniq.tolist(), sums.tolist())) == expected

    def test_promotes_past_int64(self):
        # Two weights of 2**62 sum to 2**63: overflows int64, must promote.
        keys = np.array([1, 1])
        weights = np.array([2**62, 2**62], dtype=np.int64)
        _, sums = grouped_sums(keys, weights)
        assert sums.dtype == object
        assert sums.tolist() == [2**63]

    def test_object_weights_stay_exact(self):
        keys = np.array([0, 0, 1])
        weights = np.array([2**80, 1, 7], dtype=object)
        _, sums = grouped_sums(keys, weights)
        assert sums.tolist() == [2**80 + 1, 7]

    def test_empty(self):
        keys = np.zeros(0, dtype=np.int64)
        uniq, sums = grouped_sums(keys, keys)
        assert uniq.size == 0 and sums.size == 0

    def test_lookup_sums(self):
        uniq = np.array([2, 5, 9])
        sums = np.array([10, 20, 30], dtype=np.int64)
        out = lookup_sums(uniq, sums, np.array([5, 1, 9, 2, 11]))
        assert out.tolist() == [20, 0, 30, 10, 0]

    def test_lookup_empty_uniq(self):
        out = lookup_sums(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.array([1, 2])
        )
        assert out.tolist() == [0, 0]


def assert_same_groups(keys, weights, *, dense: bool | None = None):
    """``grouped_sums`` (dense path where it applies) == the sort-only
    reference, value for value and dtype for dtype."""
    uniq, sums = grouped_sums(keys, weights)
    ref_uniq, ref_sums = reference_grouped_sums(keys, weights)
    assert uniq.dtype == ref_uniq.dtype and uniq.tolist() == ref_uniq.tolist()
    assert sums.dtype == ref_sums.dtype and sums.tolist() == ref_sums.tolist()
    if dense is not None and keys.size:
        assert (_dense_grouped_sums(keys, weights) is not None) == dense


class TestDenseGroupedSums:
    @given(
        st.data(),
        st.sampled_from([np.int64, np.int32]),
        st.sampled_from([3, 900, _DENSE_SLOTS_FLOOR + 8 * 40, 2**40]),
        st.sampled_from([1, 50, 2**40, 2**53, 2**62 - 1]),
    )
    @settings(max_examples=200, deadline=None)
    def test_dense_and_sort_paths_agree(self, data, key_dtype, key_max, weight_max):
        key_max = min(key_max, np.iinfo(key_dtype).max)
        pairs = data.draw(
            st.lists(
                st.tuples(st.integers(0, key_max), st.integers(0, weight_max)),
                max_size=40,
            )
        )
        keys = np.array([k for k, _ in pairs], dtype=key_dtype)
        weights = np.array([w for _, w in pairs], dtype=np.int64)
        assert_same_groups(keys, weights)

    def test_zero_weight_keys_are_still_groups(self):
        keys = np.array([4, 2, 4, 7])
        weights = np.array([0, 0, 0, 3], dtype=np.int64)
        assert_same_groups(keys, weights, dense=True)
        assert grouped_sums(keys, weights)[0].tolist() == [2, 4, 7]

    @pytest.mark.parametrize("n", [1, 7, 300])
    def test_density_cut(self, n):
        cut = _DENSE_SLOTS_PER_KEY * n + _DENSE_SLOTS_FLOOR
        weights = np.arange(1, n + 1, dtype=np.int64)
        keys = np.arange(n, dtype=np.int64)
        keys[-1] = cut - 1  # span just under the cut
        assert_same_groups(keys, weights, dense=True)
        keys[-1] = cut  # just over
        assert_same_groups(keys, weights, dense=False)

    def test_exactness_cut_at_2_53(self):
        key = np.array([5])
        assert_same_groups(key, np.array([2**53 - 1], dtype=np.int64), dense=True)
        assert_same_groups(key, np.array([2**53], dtype=np.int64), dense=False)
        # the bound is n * max(w): conservative for a sum spread over rows
        keys = np.array([1, 1, 1, 2])
        for total in (2**53 - 1, 2**53):
            weights = np.array([total - 2, 1, 1, total], dtype=np.int64)
            assert_same_groups(keys, weights, dense=False)
            assert grouped_sums(keys, weights)[1].tolist() == [total, total]
        small = np.array([(2**53 - 1) // 4] * 4, dtype=np.int64)
        assert_same_groups(keys, small, dense=True)

    def test_inputs_the_dense_path_declines(self):
        weights = np.array([3, 4, 5], dtype=np.int64)
        assert_same_groups(np.array([2, -1, 2]), weights, dense=False)  # negative key
        assert_same_groups(np.array([2.0, 1.0, 2.0]), weights, dense=False)  # float keys
        assert_same_groups(
            np.array([2, 1, 2]), np.array([2**70, 1, 1], dtype=object), dense=False
        )
        assert_same_groups(np.array([2, 1, 2]), np.array([3, -4, 5]), dense=False)
        assert_same_groups(np.array([2, 1, 2]), weights.astype(np.int32), dense=False)
        empty = np.zeros(0, dtype=np.int64)
        assert_same_groups(empty, empty)


class TestCompiledPredicates:
    VALUES = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 2.0])

    def _table(self):
        return Table("t", [Column("x", self.VALUES)])

    @pytest.mark.parametrize(
        "pred",
        [
            Predicate(ColumnRef("t", "x"), Op.EQ, 2.0),
            Predicate(ColumnRef("t", "x"), Op.LT, 3.0),
            Predicate(ColumnRef("t", "x"), Op.LE, 3.0),
            Predicate(ColumnRef("t", "x"), Op.GT, 1.0),
            Predicate(ColumnRef("t", "x"), Op.GE, 1.0),
            Predicate(ColumnRef("t", "x"), Op.BETWEEN, (1.0, 4.0)),
            Predicate(ColumnRef("t", "x"), Op.IN, frozenset({0.0, 2.0, 9.0})),
            OrPredicate(
                ColumnRef("t", "x"),
                (
                    Predicate(ColumnRef("t", "x"), Op.EQ, 5.0),
                    Predicate(ColumnRef("t", "x"), Op.LT, 1.0),
                ),
            ),
        ],
    )
    def test_agrees_with_evaluate(self, pred):
        fn = compile_predicates([pred])
        assert np.array_equal(fn(self._table()), pred.evaluate(self.VALUES))

    def test_conjunction_and_folds(self):
        preds = [
            Predicate(ColumnRef("t", "x"), Op.GE, 1.0),
            Predicate(ColumnRef("t", "x"), Op.LE, 3.0),
        ]
        fn = compile_predicates(preds)
        expected = preds[0].evaluate(self.VALUES) & preds[1].evaluate(self.VALUES)
        assert np.array_equal(fn(self._table()), expected)

    def test_empty_conjunction_is_none(self):
        assert compile_predicates([]) is None
        assert compile_predicates(()) is None


class TestStrictlyIncreasing:
    def test_cases(self):
        assert is_strictly_increasing(np.zeros(0, dtype=np.int64))
        assert is_strictly_increasing(np.array([4]))
        assert is_strictly_increasing(np.array([0, 2, 7]))
        assert not is_strictly_increasing(np.array([0, 2, 2]))
        assert not is_strictly_increasing(np.array([3, 1]))


class TestKeyIndexCache:
    def _table(self, n=50, seed=0):
        rng = np.random.default_rng(seed)
        return Table("t", [Column("k", rng.integers(0, 10, n))])

    def test_full_is_cached(self):
        cache = KeyIndexCache()
        tbl = self._table()
        first = cache.full(tbl, "k")
        assert cache.full(tbl, "k") is first
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_data_version_invalidates(self):
        cache = KeyIndexCache()
        tbl = self._table(n=10)
        before = cache.full(tbl, "k")
        tbl.append_rows({"k": np.array([3, 3])})
        after = cache.full(tbl, "k")
        assert after is not before
        assert after.perm.size == 12
        assert cache.stats()["misses"] == 2

    def test_lru_eviction(self):
        cache = KeyIndexCache(capacity=1)
        a = Table("a", [Column("k", np.arange(5))])
        b = Table("b", [Column("k", np.arange(5))])
        cache.full(a, "k")
        cache.full(b, "k")  # evicts a
        assert len(cache) == 1
        assert cache.stats()["evictions"] == 1
        cache.full(a, "k")  # miss again
        assert cache.stats()["misses"] == 3

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            KeyIndexCache(capacity=0)

    def test_restricted_equals_direct_index(self):
        rng = np.random.default_rng(7)
        cache = KeyIndexCache()
        tbl = self._table(n=120, seed=5)
        for _ in range(15):
            n_rows = int(rng.integers(1, 120))
            rows = np.sort(rng.choice(120, size=n_rows, replace=False)).astype(
                np.int64
            )
            got = cache.restricted(tbl, "k", rows)
            want = GroupIndex.from_keys(tbl.values("k")[rows])
            assert np.array_equal(got.uniq, want.uniq)
            assert np.array_equal(got.start, want.start)
            assert np.array_equal(got.length, want.length)
            # Both stable: identical perms, not just equivalent groups.
            assert np.array_equal(got.perm, want.perm)

    def test_restricted_all_rows_fast_path(self):
        cache = KeyIndexCache()
        tbl = self._table(n=30)
        rows = np.arange(30, dtype=np.int64)
        assert cache.restricted(tbl, "k", rows) is cache.full(tbl, "k")

    def test_restricted_empty_rows(self):
        cache = KeyIndexCache()
        tbl = self._table()
        index = cache.restricted(tbl, "k", np.zeros(0, dtype=np.int64))
        assert index.uniq.size == 0
        # No full index needs to be built for an empty subset.
        assert len(cache) == 0

    def test_clear_keeps_counters(self):
        cache = KeyIndexCache()
        tbl = self._table()
        cache.full(tbl, "k")
        cache.full(tbl, "k")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_stats_shape(self):
        stats = KeyIndexCache().stats()
        assert set(stats) == {"entries", "hits", "misses", "evictions", "hit_rate"}
        assert stats["hit_rate"] == 0.0
