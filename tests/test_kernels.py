"""Tests for the shared columnar kernels (``repro.engine.kernels``).

Every kernel is cross-checked against a dict/loop reference on random
inputs: the kernels are the hot path of both the executor and the plan
interpreter, so a silent off-by-one here corrupts every count downstream.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.executor import _group_sum, _lookup
from repro.engine.kernels import (
    _DIRECT_SLOTS_FLOOR,
    _DIRECT_SLOTS_PER_KEY,
    GroupIndex,
    KeyIndexCache,
    compile_predicates,
    direct_span,
    expand_matches,
    grouped_sums,
    is_strictly_increasing,
    lookup_sums,
    match_counts,
)
from repro.sql import ColumnRef, Op, OrPredicate, Predicate
from repro.storage import Column, Table
from tests.executor_reference import reference_grouped_sums, reference_lookup_sums


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
        uniq, sums = grouped_sums(keys, weights, None)
        expected = {}
        for k, w in zip(keys.tolist(), weights.tolist()):
            expected[k] = expected.get(k, 0) + w
        assert dict(zip(uniq.tolist(), sums.tolist())) == expected

    def test_promotes_past_int64(self):
        # Two weights of 2**62 sum to 2**63: overflows int64, must promote.
        keys = np.array([1, 1])
        weights = np.array([2**62, 2**62], dtype=np.int64)
        _, sums = grouped_sums(keys, weights, None)
        assert sums.dtype == object
        assert sums.tolist() == [2**63]

    def test_object_weights_stay_exact(self):
        keys = np.array([0, 0, 1])
        weights = np.array([2**80, 1, 7], dtype=object)
        _, sums = grouped_sums(keys, weights, None)
        assert sums.tolist() == [2**80 + 1, 7]

    def test_empty(self):
        keys = np.zeros(0, dtype=np.int64)
        uniq, sums = grouped_sums(keys, keys, None)
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


def assert_same_message(keys, weights, parent_keys, *, slack=0, direct=None):
    """One message as the executor sends it -- the span read off both join
    columns' indexes (``slack`` widens it, as a full column's range covers
    more than the filtered keys), then ``_lookup(*_group_sum(...))`` -- equals
    the sort-only reference kernels with explicit unit weights, value for
    value and dtype for dtype.  Returns whether the direct-address path ran.
    """
    span = direct_span(GroupIndex.from_keys(keys), GroupIndex.from_keys(parent_keys))
    if span is not None:
        span += slack
    uniq, sums = _group_sum(keys, weights, span)
    got = _lookup(uniq, sums, parent_keys)
    unit = np.ones(keys.shape[0], dtype=np.int64)
    want = reference_lookup_sums(
        *reference_grouped_sums(keys, unit if weights is None else weights), parent_keys
    )
    assert got.dtype == want.dtype and got.tolist() == want.tolist()
    if direct is not None:
        assert (uniq is None) == direct
    return uniq is None


_WEIGHT_DTYPES = {"unit": None, "int64": np.int64, "object": object}


class TestDenseGroupedSums:
    """Direct-address messages: ``np.bincount`` over the key span, read back
    by ``table[parent_keys]``, against the sort-only reference."""

    @given(
        st.data(),
        st.sampled_from([np.int64, np.int32, np.float64]),
        st.sampled_from([0, -3]),
        st.sampled_from([3, 900, _DIRECT_SLOTS_FLOOR + 8 * 40, 2**40]),
        st.sampled_from(list(_WEIGHT_DTYPES)),
        st.sampled_from([1, 50, 2**40, 2**53, 2**62 - 1]),
        st.sampled_from([0, 1, 100, _DIRECT_SLOTS_FLOOR]),
    )
    @settings(max_examples=300, deadline=None)
    def test_dense_and_sort_paths_agree(
        self, data, key_dtype, key_min, key_max, weight_kind, weight_max, slack
    ):
        if key_dtype is np.int32:
            key_max = min(key_max, np.iinfo(np.int32).max - 8)
        pairs = data.draw(
            st.lists(
                st.tuples(st.integers(key_min, key_max), st.integers(0, weight_max)),
                max_size=40,
            )
        )
        # parent keys reach past every child key, and may be absent entirely
        parent = data.draw(st.lists(st.integers(key_min, key_max + 5), max_size=40))
        keys = np.array([k for k, _ in pairs], dtype=key_dtype)
        dtype = _WEIGHT_DTYPES[weight_kind]
        weights = None if dtype is None else np.array([w for _, w in pairs], dtype=dtype)
        assert_same_message(keys, weights, np.array(parent, dtype=key_dtype), slack=slack)

    def test_zero_sum_slot_reads_like_an_absent_key(self):
        # a key whose rows all weigh 0 is a sort-path group; its direct slot
        # is the same 0 an absent key reads
        keys = np.array([4, 2, 4, 7])
        weights = np.array([0, 0, 0, 3], dtype=np.int64)
        parent = np.array([2, 4, 7, 5, 0, 4])
        assert assert_same_message(keys, weights, parent, direct=True)
        assert _lookup(*_group_sum(keys, weights, 8), parent).tolist() == [0, 0, 3, 0, 0, 0]

    @pytest.mark.parametrize("n", [1, 7, 300])
    def test_density_cut(self, n):
        cut = _DIRECT_SLOTS_PER_KEY * n + _DIRECT_SLOTS_FLOOR
        weights = np.arange(1, n + 1, dtype=np.int64)
        keys = np.arange(n, dtype=np.int64)
        keys[-1] = cut - 1  # span just under the cut
        for w in (None, weights):
            assert_same_message(keys, w, keys, direct=True)
            assert_same_message(keys, w, keys, slack=1, direct=False)
        keys[-1] = cut  # just over
        assert_same_message(keys, weights, keys, direct=False)
        # a parent column's keys widen the span as much as the child's
        small = np.arange(n, dtype=np.int64)
        assert_same_message(small, weights, np.array([cut - 1]), direct=True)
        assert_same_message(small, weights, np.array([cut]), direct=False)

    def test_exactness_cut_at_2_53(self):
        key = np.array([5])
        assert_same_message(key, np.array([2**53 - 1], dtype=np.int64), key, direct=True)
        assert_same_message(key, np.array([2**53], dtype=np.int64), key, direct=False)
        # the bound is n * max(w): conservative for a sum spread over rows
        keys = np.array([1, 1, 1, 2])
        for total in (2**53 - 1, 2**53):
            weights = np.array([total - 2, 1, 1, total], dtype=np.int64)
            assert_same_message(keys, weights, keys, direct=False)
            assert _group_sum(keys, weights, 3)[1].tolist() == [total, total]
        small = np.array([(2**53 - 1) // 4] * 4, dtype=np.int64)
        assert_same_message(keys, small, keys, direct=True)
        # unit weights never need the guard
        assert_same_message(keys, None, keys, direct=True)

    def test_inputs_the_dense_path_declines(self):
        weights = np.array([3, 4, 5], dtype=np.int64)
        keys = np.array([2, 1, 2])
        for child, parent in (
            (np.array([2, -1, 2]), keys),  # negative child key
            (keys, np.array([2, -1, 0])),  # negative parent key
            (np.array([2.0, 1.0, 2.0]), keys.astype(np.float64)),  # float keys
        ):
            assert direct_span(GroupIndex.from_keys(child), GroupIndex.from_keys(parent)) is None
            assert_same_message(child, weights, parent, direct=False)
            assert_same_message(child, None, parent, direct=False)
        assert_same_message(keys, np.array([2**70, 1, 1], dtype=object), keys, direct=False)
        assert_same_message(keys, np.array([3, -4, 5]), keys, direct=False)
        assert_same_message(keys, weights.astype(np.int32), keys, direct=False)
        empty = np.zeros(0, dtype=np.int64)
        # an empty side on either end: no table to build, or none to read
        assert_same_message(empty, empty, keys, direct=False)
        assert_same_message(empty, None, keys, direct=False)
        assert_same_message(keys, weights, empty, direct=True)
        assert_same_message(keys, None, empty, direct=True)
        assert direct_span(GroupIndex.from_keys(empty), GroupIndex.from_keys(empty)) == 0


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
