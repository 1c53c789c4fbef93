"""Shared columnar join/filter kernels and the key-index cache.

Before this module existed, every consumer of the columnar store hand-rolled
its own ``argsort`` + ``searchsorted`` + offset-expansion join: the
executor's cyclic-join materializer, the oracle's
:class:`~repro.oracle.planexec.PlanInterpreter` and the tree-count message
pass each carried a subtly different copy, and each paid the ``argsort`` /
``np.unique`` of the build side's key column *once per join per plan* --
even though the underlying column never changed between plans.

This module is the single implementation all of them now share:

- :class:`GroupIndex` -- a sort-based "hash table" over a key array
  (unique keys, group extents, the permutation sorting positions by key);
- :func:`match_counts` / :func:`expand_matches` -- the ``np.searchsorted``
  semi-join and the vectorized probe-order match expansion, i.e. one
  sort-merge/expand join kernel used by the exact counter's cyclic core and
  the plan interpreter alike;
- :func:`unique_lookup` -- the join into a column unique over its whole
  table: one build row per probe, never an expansion; a direct-address
  row-of-key table where :func:`direct_span` bounds the keys, else a
  ``searchsorted`` on the cached full-column index;
- :func:`grouped_sums` / :func:`lookup_sums` -- the group-by-sum and
  semi-join lookup primitives of the counter's message pass, integer-exact
  past the int64/float64 limits, direct-address tables where
  :func:`direct_span` bounds the keys;
- :func:`compile_predicates` -- predicate conjunctions compiled once into a
  boolean-mask evaluator closure (no per-row, per-call ``Op`` dispatch);
- :class:`KeyIndexCache` -- a bounded LRU (:class:`repro.core.lru.BoundedLRU`,
  which also backs the executor's memo) of *full-column* group indexes
  keyed by ``(table, column, data_version)``, with :meth:`~KeyIndexCache.
  restricted` deriving the index of any filtered row subset in O(n) from
  the cached O(n log n) sort.  Data mutations bump ``data_version``, so
  stale indexes are simply never looked up again and age out of the LRU.

The pure-Python :mod:`repro.oracle.reference` counter deliberately does
*not* use this module -- it is the independent cross-check that keeps the
kernels honest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.lru import BoundedLRU
from repro.sql.query import Op
from repro.storage.table import Table

__all__ = [
    "GroupIndex",
    "KeyIndexCache",
    "match_counts",
    "expand_matches",
    "direct_span",
    "grouped_sums",
    "lookup_sums",
    "unique_lookup",
    "compile_predicates",
    "is_strictly_increasing",
]


def is_strictly_increasing(rows: np.ndarray) -> bool:
    """True when ``rows`` is a strictly increasing index array.

    The shape ``np.flatnonzero`` produces -- and the precondition for
    :meth:`KeyIndexCache.restricted`.  Join intermediates (gathered, with
    duplicates) fail this and must be indexed directly.
    """
    return rows.size == 0 or bool(np.all(rows[1:] > rows[:-1]))

#: Promote int64 arithmetic to Python-int (object dtype) once a float64
#: shadow of the running value crosses this bound; one power of two of
#: headroom below ``2**63 - 1`` makes the check sound (the shadow tracks
#: the true integer value to ~1e-13 relative error).
_INT64_PROMOTE_LIMIT = float(2**62)

_EMPTY_I64 = np.zeros(0, dtype=np.int64)


@dataclass(frozen=True)
class GroupIndex:
    """Sort-based 'hash table' over a key array.

    ``perm`` holds positions into the original key array in key-sorted
    order; ``uniq`` the sorted distinct keys; ``start``/``length`` the
    extent of each key's group within ``perm``.  Built once per key array
    (or once per *column* via :class:`KeyIndexCache`), probed many times.
    """

    uniq: np.ndarray
    start: np.ndarray  # int64 offsets into perm
    length: np.ndarray  # int64 group sizes
    perm: np.ndarray  # positions into the indexed array, key-sorted

    @classmethod
    def from_keys(cls, keys: np.ndarray) -> "GroupIndex":
        """Index an arbitrary key array (one stable argsort)."""
        if keys.size == 0:
            return cls(keys, _EMPTY_I64, _EMPTY_I64, _EMPTY_I64)
        perm = np.argsort(keys, kind="stable")
        return cls._from_sorted(keys[perm], perm)

    @classmethod
    def _from_sorted(cls, sorted_keys: np.ndarray, perm: np.ndarray) -> "GroupIndex":
        """Index already-key-sorted data: O(n), no sort."""
        if sorted_keys.size == 0:
            return cls(sorted_keys, _EMPTY_I64, _EMPTY_I64, perm.astype(np.int64))
        boundary = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
        start = np.concatenate(([0], boundary)).astype(np.int64)
        length = np.diff(np.append(start, sorted_keys.shape[0])).astype(np.int64)
        return cls(sorted_keys[start], start, length, perm.astype(np.int64))


def match_counts(
    index: GroupIndex, probe_keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``np.searchsorted`` semi-join: per-probe group position and match count.

    Returns ``(pos, counts)`` where ``pos[i]`` is the probe's group slot in
    the index (clipped; only meaningful where ``counts[i] > 0``) and
    ``counts[i]`` the number of build-side matches.
    """
    if index.uniq.size == 0:
        zeros = np.zeros(probe_keys.shape[0], dtype=np.int64)
        return zeros, zeros
    pos = np.minimum(np.searchsorted(index.uniq, probe_keys), index.uniq.shape[0] - 1)
    hit = index.uniq[pos] == probe_keys
    counts = np.where(hit, index.length[pos], 0).astype(np.int64)
    return pos, counts


def expand_matches(
    index: GroupIndex, probe_pos: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Build-side positions matching each probe, expanded in probe order.

    The companion of :func:`match_counts`: given the per-probe group slots
    and match counts, emit for probe ``i`` the ``counts[i]`` positions of
    its matching build rows, concatenated over probes.  Pure vector code --
    the offset-within-group trick both the materializer and the plan
    interpreter used to hand-roll.
    """
    total = int(counts.sum())
    if total == 0:
        return _EMPTY_I64
    starts = np.where(counts > 0, index.start[probe_pos], 0)
    cum = np.cumsum(counts)
    idx = np.arange(total)
    probe_of_idx = np.searchsorted(cum, idx, side="right")
    offset = idx - (cum[probe_of_idx] - counts[probe_of_idx])
    return index.perm[starts[probe_of_idx] + offset]


#: Direct-address cut: ``np.bincount`` over the key span beats the sort up
#: to ~8 slots per key, and under ~4k slots costs only call overhead.
_DIRECT_SLOTS_PER_KEY = 8
_DIRECT_SLOTS_FLOOR = 4096

#: float64 represents every integer below this exactly.
_FLOAT64_EXACT_LIMIT = 2**53


def direct_span(*columns: GroupIndex) -> int | None:
    """Length of a direct-address table covering every key of ``columns``
    (full-column indexes, so ``uniq`` is sorted): one past the largest key,
    or ``None`` unless every column holds non-negative integer ids."""
    span = 0
    for column in columns:
        uniq = column.uniq
        if uniq.dtype.kind != "i":
            return None
        if uniq.size:
            if uniq[0] < 0:
                return None
            span = max(span, int(uniq[-1]) + 1)
    return span


def _within_cut(span: int | None, n: int) -> bool:
    """True when a direct-address table of ``span`` slots pays for ``n``
    keys (the slots-per-key cut; ``None`` is no span)."""
    return span is not None and span <= _DIRECT_SLOTS_PER_KEY * n + _DIRECT_SLOTS_FLOOR


def grouped_sums(
    keys: np.ndarray, weights: np.ndarray | None, span: int | None
) -> tuple[np.ndarray | None, np.ndarray]:
    """Group-by-sum ``(unique_keys, summed_weights)``, integer-exact.

    Weights are integer counts (int64, or object-dtype Python ints once
    promoted); ``None`` stands for unit weights.  Accumulating them in
    float64 silently rounds past 2**53 -- and long multiply chains well
    before that -- so sums stay in integer arithmetic, promoting to
    arbitrary-precision Python ints when a float64 shadow shows the int64
    range is at risk.

    ``span`` is ``None`` or a bound every key here and every key later
    looked up lies below (:func:`direct_span`).  Within the slots-per-key
    cut the sums come back as a *direct-address table*, ``(None, table)``
    with ``table[k]`` the sum of key ``k``: ``np.bincount`` of int64 counts
    for unit weights, and of float64 sums, cast back, for int64 weights
    with ``min >= 0`` and ``n * max(w) < 2**53`` (every partial sum is then
    an integer below 2**53, so the float sums *are* the integer sums).
    Everything else takes one stable sort plus ``np.add.reduceat`` over
    group extents.  :func:`lookup_sums` reads either form, and both give
    the same value and dtype for every looked-up key.
    """
    n = keys.shape[0]
    if n == 0:
        return keys, _EMPTY_I64 if weights is None else weights
    if _within_cut(span, n):
        if weights is None:
            return None, np.bincount(keys, minlength=span)
        if (
            weights.dtype == np.int64
            and int(weights.min()) >= 0
            and n * int(weights.max()) < _FLOAT64_EXACT_LIMIT
        ):
            return None, np.bincount(keys, weights, minlength=span).astype(np.int64)
    if weights is None:
        weights = np.ones(n, dtype=np.int64)
    index = GroupIndex.from_keys(keys)
    ordered = weights[index.perm]
    if ordered.dtype != object:
        shadow = np.add.reduceat(ordered.astype(np.float64), index.start)
        if np.max(shadow, initial=0.0) < _INT64_PROMOTE_LIMIT:
            return index.uniq, np.add.reduceat(ordered, index.start)
        ordered = ordered.astype(object)
    return index.uniq, np.add.reduceat(ordered, index.start)


def lookup_sums(
    uniq: np.ndarray | None, sums: np.ndarray, keys: np.ndarray
) -> np.ndarray:
    """Semi-join lookup: map each key to its summed weight (0 when absent).

    ``uniq is None`` marks a direct-address table from :func:`grouped_sums`:
    the lookup is ``sums[keys]``, and an absent key reads the 0 its slot
    was never incremented from.
    """
    if uniq is None:
        return sums[keys]
    if uniq.size == 0:
        return np.zeros(keys.shape[0], dtype=sums.dtype if sums.size else np.int64)
    pos = np.minimum(np.searchsorted(uniq, keys), uniq.shape[0] - 1)
    return np.where(uniq[pos] == keys, sums[pos], 0)


def unique_lookup(
    full: GroupIndex,
    span: int | None,
    values: np.ndarray,
    rows: np.ndarray,
    probe_keys: np.ndarray,
) -> np.ndarray:
    """Join into a column unique over its whole table: the build row of each
    probe key, or -1 when the key is absent or its row is filtered out.

    ``full`` is the column's full-column index (``uniq.size`` equals the
    row count, so ``perm[i]`` is the one row holding ``uniq[i]``),
    ``values`` the whole column and ``rows`` the build side's strictly
    increasing filtered row ids.  No probe matches more than one row, so
    nothing expands.  Within the slots-per-key cut of a :func:`direct_span`
    covering both join columns this is a direct-address row-of-key table
    over the filtered rows, read back by ``table[probe_keys]``; otherwise a
    ``searchsorted`` on the full index, with the filter applied as a row
    mask.
    """
    if _within_cut(span, rows.shape[0]):
        table = np.full(span, -1, dtype=np.int64)
        table[values[rows]] = rows
        return table[probe_keys]
    if full.uniq.size == 0:
        return np.full(probe_keys.shape[0], -1, dtype=np.int64)
    pos = np.minimum(np.searchsorted(full.uniq, probe_keys), full.uniq.shape[0] - 1)
    hit = full.uniq[pos] == probe_keys
    found = full.perm[pos]
    if rows.shape[0] != values.shape[0]:
        kept = np.zeros(values.shape[0], dtype=bool)
        kept[rows] = True
        hit &= kept[found]
    return np.where(hit, found, -1)


# -- compiled predicate evaluators -------------------------------------------------


def _compile_one(pred) -> Callable[[np.ndarray], np.ndarray]:
    """One predicate -> a mask closure with the Op dispatch resolved now."""
    op = pred.op
    if op is Op.OR:
        parts = [_compile_one(p) for p in pred.parts]

        def run_or(values: np.ndarray) -> np.ndarray:
            mask = parts[0](values)
            for fn in parts[1:]:
                mask = mask | fn(values)
            return mask

        return run_or
    if op is Op.EQ:
        value = pred.value
        return lambda values: values == value
    if op is Op.LT:
        value = pred.value
        return lambda values: values < value
    if op is Op.LE:
        value = pred.value
        return lambda values: values <= value
    if op is Op.GT:
        value = pred.value
        return lambda values: values > value
    if op is Op.GE:
        value = pred.value
        return lambda values: values >= value
    if op is Op.BETWEEN:
        lo, hi = pred.value
        return lambda values: (values >= lo) & (values <= hi)
    if op is Op.IN:
        members = np.asarray(sorted(pred.value))
        return lambda values: np.isin(values, members)
    raise AssertionError(f"unhandled op {op}")


def compile_predicates(predicates) -> Callable[[Table], np.ndarray] | None:
    """Compile a predicate conjunction into one table -> bool-mask closure.

    Returns ``None`` for an empty conjunction (all rows pass) so callers
    can skip mask allocation entirely.  The closure fetches each referenced
    column once and AND-folds the per-predicate masks; the ``Op`` dispatch
    and literal coercion happen here, at compile time, not per evaluation.
    """
    if not predicates:
        return None
    compiled = [(p.column.column, _compile_one(p)) for p in predicates]

    def run(table: Table) -> np.ndarray:
        mask: np.ndarray | None = None
        for column, fn in compiled:
            m = fn(table.values(column))
            mask = m if mask is None else mask & m
        return mask

    return run


# -- the key-index cache ------------------------------------------------------------


class KeyIndexCache(BoundedLRU):
    """Bounded LRU of full-column :class:`GroupIndex` objects.

    Keys are ``(table_name, column, data_version)``: the ``argsort`` of a
    join column is paid once per column per data version instead of once
    per join per plan.  :meth:`restricted` then derives the group index of
    any *filtered* row subset from the cached full-column sort in linear
    time -- the filtered rows are walked in cached key order, so no new
    sort is ever needed on the hot path.  Eviction, counters and
    ``stats()`` are :class:`~repro.core.lru.BoundedLRU`'s.
    """

    def __init__(self, capacity: int = 512) -> None:
        super().__init__(capacity)

    def full(self, table: Table, column: str) -> GroupIndex:
        """The (cached) group index over the whole column."""
        key = (table.name, column, table.data_version)
        index = self.get(key)
        if index is None:
            index = GroupIndex.from_keys(table.values(column))
            self.put(key, index)
        return index

    def restricted(self, table: Table, column: str, rows: np.ndarray) -> GroupIndex:
        """Group index of ``column`` over the filtered row subset ``rows``.

        ``rows`` must be strictly increasing row indices (the shape
        ``np.flatnonzero`` produces).  The returned index's ``perm`` holds
        positions *into* ``rows`` -- aligned with any arrays gathered by
        ``rows`` -- exactly like ``GroupIndex.from_keys(values[rows])``,
        but without re-sorting: the cached full-column order is filtered
        down in O(n).
        """
        if rows.size == 0:
            return GroupIndex(
                table.values(column)[:0], _EMPTY_I64, _EMPTY_I64, _EMPTY_I64
            )
        full = self.full(table, column)
        if rows.size == table.n_rows:
            # Unfiltered: positions into `rows` equal row ids.
            return full
        keep = np.zeros(table.n_rows, dtype=bool)
        keep[rows] = True
        selected = keep[full.perm]
        rows_in_key_order = full.perm[selected]
        # Map absolute row ids to positions within the (sorted) `rows`.
        position_of = np.empty(table.n_rows, dtype=np.int64)
        position_of[rows] = np.arange(rows.shape[0], dtype=np.int64)
        perm = position_of[rows_in_key_order]
        sorted_keys = table.values(column)[rows_in_key_order]
        return GroupIndex._from_sorted(sorted_keys, perm)
