"""Exact COUNT(*) evaluation of SPJ queries over the columnar store.

One counter, run by the recipe the query's compiled
:class:`~repro.sql.joingraph.JoinGraph` holds (it depends on ``(tables,
joins)`` alone, so each shape derives it once):

- **Peel steps**: message passing, the classic variable-elimination /
  semijoin-program trick.  Each filtered table starts with per-row weight 1
  (implicitly: no array until a message arrives); a table with exactly one
  join left sends ``groupby(join_key) -> sum(weight)`` to its neighbour,
  which multiplies the message into its row weights.  Near-linear, and it
  never materializes a join.
- **The core**: what is left once no table has a single join -- one table
  for a tree, whose weight sum is the count; otherwise a cycle (or a
  parallel edge between two tables).  A cyclic core is materialized with a
  greedy join, guarded by ``max_intermediate_rows`` so pathological queries
  fail loudly instead of exhausting memory.  A join into a column unique
  over its whole table is a lookup that never expands; the others are
  sort-merge/expand joins, and joins that close a cycle filter the
  intermediate.  The count is the sum over core rows of the product of the
  core tables' weights, integer-exact past 2**62 like every message.

The numeric kernels (group-by-sum, semi-join lookup, unique-key lookup,
sort-merge/expand join, key-index cache) live in :mod:`repro.engine.kernels`
and are shared with the oracle's plan interpreter.  The module-level
wrappers below (`_filtered_indices`, `_group_sum`, `_lookup`, ...) are kept
as the live call path on purpose: the oracle's seeded mutations patch these
names (and ``CardinalityExecutor._count``) to re-introduce known bug
classes, so they must remain where the executor actually dispatches
through.

A :class:`CardinalityExecutor` instance memoizes results per query in a
bounded LRU, since optimizers repeatedly ask for the same sub-query
cardinalities (and under serving the query stream is unbounded).

A message between two join columns of non-negative integer ids is a
direct-address table (``np.bincount`` over the key span, read back by
``table[parent_keys]``) instead of a sort and a ``searchsorted``; the span
is read off both columns' cached full-column indexes.  A lookup join into a
unique column is a direct-address row-of-key table the same way.

Executing a plan needs every node's count;
:meth:`CardinalityExecutor.plan_cardinalities` produces them in one pass
(one ``data_version`` check, one ``cardinality()`` per join node, one
filter evaluation per base table, one materialization per cyclic core).
Join nodes go first; a scan is then the size of the row set they filtered
for its table, and only a scan whose table no join node filtered -- a
one-table plan, or every join node a memo hit -- asks ``cardinality()``.
The per-node loop it replaced, and the tree counter and whole-query
materializer this counter replaced, are kept in
``tests/executor_reference.py`` (DESIGN.md §7, "Exact executor").
"""

from __future__ import annotations

import numpy as np

from repro.core.lru import BoundedLRU
from repro.engine.kernels import (
    _INT64_PROMOTE_LIMIT,
    KeyIndexCache,
    direct_span,
    expand_matches,
    grouped_sums,
    lookup_sums,
    match_counts,
    unique_lookup,
)
from repro.engine.plans import JoinNode, Plan, PlanNode
from repro.sql.joingraph import join_graph
from repro.sql.query import Query
from repro.storage.catalog import Database

__all__ = ["CardinalityExecutor", "execute_cardinality", "IntermediateTooLarge"]


class IntermediateTooLarge(RuntimeError):
    """Raised when a cyclic core's materialization exceeds the row guard."""


def _filtered_indices(db: Database, query: Query, table: str) -> np.ndarray:
    """Row indices of ``table`` passing all of the query's predicates on it.

    Deliberately dispatches through ``Predicate.evaluate`` (not the compiled
    evaluators in :mod:`repro.engine.kernels`): predicate-semantics
    mutations patch ``evaluate``, and the differential oracle catches them
    by this path diverging from the pure-Python reference.
    """
    tbl = db.table(table)
    mask = np.ones(tbl.n_rows, dtype=bool)
    for pred in query.predicates_on(table):
        mask &= pred.evaluate(tbl.values(pred.column.column))
    return np.flatnonzero(mask)


def _group_sum(
    keys: np.ndarray, weights: np.ndarray | None, span: int | None
) -> tuple[np.ndarray | None, np.ndarray]:
    """Return (unique_keys, summed_weights), integer-exact, or ``(None,
    table)`` for a direct-address message; ``None`` weights are unit
    weights (see kernels)."""
    return grouped_sums(keys, weights, span)


def _lookup(uniq: np.ndarray | None, sums: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Map each key to its summed weight (0 when absent)."""
    return lookup_sums(uniq, sums, keys)


def _weight_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise integer product, promoting past the int64 range."""
    if a.dtype == object or b.dtype == object:
        return a.astype(object) * b.astype(object)
    shadow = a.astype(np.float64) * b.astype(np.float64)
    if shadow.size and np.max(shadow, initial=0.0) >= _INT64_PROMOTE_LIMIT:
        return a.astype(object) * b.astype(object)
    return a * b


def _weight_total(weights: np.ndarray) -> int:
    """Exact integer sum of a weight array."""
    if weights.dtype == object:
        return int(sum(weights.tolist()))
    if (
        weights.size
        and weights.astype(np.float64).sum() >= _INT64_PROMOTE_LIMIT
    ):
        return int(sum(int(w) for w in weights))
    return int(weights.sum())


def _row_weights(weights: np.ndarray, rows: np.ndarray, n_rows: int) -> np.ndarray:
    """Weights aligned with the filtered ``rows``, re-indexed by row id (a
    filtered-out row weighs 0 and is never read)."""
    if rows.shape[0] == n_rows:
        return weights
    by_row = np.zeros(n_rows, dtype=weights.dtype)
    by_row[rows] = weights
    return by_row


class CardinalityExecutor:
    """Exact-cardinality oracle over a database, with bounded memoization.

    The per-query memo is an LRU capped at ``cache_capacity`` (serving
    streams are unbounded; the old dict grew without limit) with hit/miss/
    eviction counters surfaced through :meth:`cache_stats` in the same
    shape the optimizer's ``CardinalityCache`` reports.  The memo is
    pinned to ``db.data_version`` and drops itself whenever a table
    mutates -- an exact oracle that answers from pre-mutation data is
    worse than a slow one, and the drift scenarios mutate mid-stream.
    The memo is keyed by the query's field tuple ``(tables, joins,
    predicates)`` -- equal exactly when the queries are -- so it keeps no
    ``Query`` (nor the memos a ``Query`` carries) alive.  Join-column sort
    indexes live in this executor's own
    :class:`~repro.engine.kernels.KeyIndexCache`, so repeated core
    materializations never re-sort an unchanged column, and every message
    and lookup reads its key span -- and a lookup its column's uniqueness --
    off the same cached index (that cache keys on
    ``(table, column, data_version)``, which is why it is never shared
    across databases).
    """

    def __init__(
        self,
        db: Database,
        max_intermediate_rows: int = 50_000_000,
        cache_capacity: int = 100_000,
    ) -> None:
        if cache_capacity <= 0:
            raise ValueError(f"cache_capacity must be positive, got {cache_capacity}")
        self.db = db
        self.max_intermediate_rows = max_intermediate_rows
        self.key_index = KeyIndexCache()
        self._cache = BoundedLRU(cache_capacity)
        self._cache_version = db.data_version
        # table -> filtered row ids, for the duration of one
        # plan_cardinalities pass; None outside a pass.
        self._plan_rows: dict[str, np.ndarray] | None = None
        # core joins -> the core's materialized row ids, for the same pass
        self._plan_cores: dict[tuple, dict[str, np.ndarray]] | None = None

    def _sync_version(self) -> None:
        """Drop the memo when a table has mutated since it was filled."""
        version = self.db.data_version
        if version != self._cache_version:
            self._cache.clear()
            self._cache_version = version

    def cardinality(self, query: Query) -> int:
        """Exact COUNT(*) of the query.

        Disconnected join graphs are rejected (the surveyed systems never
        produce cross joins); single-table queries count filtered rows.
        """
        if self._plan_rows is None:  # a plan pass has checked already
            self._sync_version()
        key = (query.tables, query.joins, query.predicates)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if not join_graph(query).connected:
            raise ValueError(
                f"query join graph is disconnected (cross join unsupported): {query}"
            )
        result = self._count(query)
        self._cache.put(key, result)
        return result

    def plan_cardinalities(self, plan: Plan) -> dict[PlanNode, int]:
        """Exact output cardinality of every node of ``plan``, children first.

        One pass: ``data_version`` is checked once and each base table's
        filter runs at most once -- a node's sub-query keeps all of the plan
        query's predicates on its tables, so within the pass a table names
        its row set, and a cyclic core's joins name its materialization
        (built once, shared by every node whose core it is).  Join nodes are
        counted first, each once through :meth:`cardinality` (so the memo
        still answers repeated sub-queries); a scan whose table they
        filtered is then that row set's size, and any other scan -- a
        one-table plan, or a table whose join nodes all hit the memo -- is
        one more :meth:`cardinality` call.  The sub-queries are built by
        ``Query.restrict``, outside the plan query's ``subquery`` memo, so
        none outlives the pass.
        """
        self._sync_version()
        query = plan.query
        nodes = tuple(plan.walk())[::-1]
        rows: dict[str, np.ndarray] = {}
        self._plan_rows, self._plan_cores = rows, {}
        try:
            joins = {
                node: self.cardinality(query.restrict(node.tables))
                for node in nodes
                if isinstance(node, JoinNode)
            }
            cards = {}
            for node in nodes:
                if isinstance(node, JoinNode):
                    cards[node] = joins[node]
                elif node.table in rows:
                    cards[node] = int(rows[node.table].size)
                else:
                    cards[node] = self.cardinality(query.restrict(node.tables))
            return cards
        finally:
            self._plan_rows = self._plan_cores = None

    def _filtered(self, query: Query, table: str) -> np.ndarray:
        """``_filtered_indices``, shared within a plan pass."""
        shared = self._plan_rows
        if shared is None:
            return _filtered_indices(self.db, query, table)
        rows = shared.get(table)
        if rows is None:
            rows = shared[table] = _filtered_indices(self.db, query, table)
        return rows

    def clear_cache(self) -> None:
        """Drop memoized results (counters survive; they describe the session)."""
        self._cache.clear()
        self.key_index.clear()

    def cache_stats(self) -> dict[str, float]:
        """Memo stats in the shape every cache reports."""
        return self._cache.stats()

    # -- the one counter: peel, then the core --------------------------------------

    def _count(self, query: Query) -> int:
        """Exact COUNT(*) of a connected query by its compiled recipe.

        Each peel step sends ``groupby(join key) -> sum(weight)`` from a
        table with one join left into its neighbour, whose rows multiply it
        into their weights.  A tree ends on one table, whose weight sum is
        the count.  A cyclic core is materialized (once per plan pass) and
        counts the sum over its rows of the product of its tables' weights.
        """
        peel, core, core_joins = join_graph(query).recipe
        rows = {t: self._filtered(query, t) for t in query.tables}
        # Unit weights are implicit: a table that has received no message
        # carries None, and its first message *is* its weight vector.
        weights: dict[str, np.ndarray | None] = dict.fromkeys(query.tables)
        full = self.key_index.full
        for table, parent, my_col, parent_col in peel:
            child_tbl, parent_tbl = self.db.table(table), self.db.table(parent)
            span = direct_span(full(child_tbl, my_col), full(parent_tbl, parent_col))
            keys = child_tbl.values(my_col)[rows[table]]
            uniq, sums = _group_sum(keys, weights[table], span)
            parent_keys = parent_tbl.values(parent_col)[rows[parent]]
            message = _lookup(uniq, sums, parent_keys)
            held = weights[parent]
            weights[parent] = (
                message if held is None else _weight_product(held, message)
            )
        if not core_joins:
            held = weights[core[0]]
            return int(rows[core[0]].size) if held is None else _weight_total(held)

        # Within a plan pass a table names its rows, so the core's joins
        # name its materialization.
        memo = self._plan_cores
        inter = None if memo is None else memo.get(core_joins)
        if inter is None:
            inter = self._materialize(query, core, core_joins, rows)
            if memo is not None:
                memo[core_joins] = inter
        product = None
        for table in core:
            held = weights[table]
            if held is None:
                continue
            n_rows = self.db.table(table).n_rows
            gathered = _row_weights(held, rows[table], n_rows)[inter[table]]
            product = gathered if product is None else _weight_product(product, gathered)
        if product is None:
            return int(inter[core[0]].shape[0])
        return _weight_total(product)

    def _materialize(
        self, query: Query, core: tuple, joins: tuple, rows: dict[str, np.ndarray]
    ) -> dict[str, np.ndarray]:
        """Guarded greedy join of the core's tables.

        A join into a column unique over its whole table is a lookup (no
        expansion); the start table reaches the most tables by lookups, then
        is the smallest filtered table, then the first by name, so the order
        never depends on the process's string-hash seed.  Each step takes the
        frontier join that is a lookup, else has the smallest build side
        (the first in join order on a tie), and every join that becomes
        internal is applied as a filter.
        """
        db, full = self.db, self.key_index.full
        unique = {}
        reach: dict[str, list[str]] = {}
        for j in joins:
            for ref, other in ((j.left, j.right), (j.right, j.left)):
                tbl = db.table(ref.table)
                unique[ref] = full(tbl, ref.column).uniq.shape[0] == tbl.n_rows
                if unique[ref]:
                    reach.setdefault(other.table, []).append(ref.table)

        def lookups(table: str) -> int:
            seen, frontier = {table}, [table]
            while frontier:
                for nxt in reach.get(frontier.pop(), ()):
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
            return len(seen)

        def build_side(join):
            return join.right if join.left.table in inter else join.left

        start = min(core, key=lambda t: (-lookups(t), rows[t].size, t))
        inter: dict[str, np.ndarray] = {start: rows[start]}
        pending = list(joins)
        while pending:
            candidates = [
                j for j in pending if (j.left.table in inter) != (j.right.table in inter)
            ]
            if not candidates:
                raise AssertionError("connected core ran out of join edges")
            edge = min(
                candidates,
                key=lambda j: (not unique[build_side(j)], rows[build_side(j).table].size),
            )
            new_ref = build_side(edge)
            old_ref = edge.left if new_ref is edge.right else edge.right
            new_table = new_ref.table
            build_tbl, probe_tbl = db.table(new_table), db.table(old_ref.table)
            probe_keys = probe_tbl.values(old_ref.column)[inter[old_ref.table]]
            build_rows = rows[new_table]
            if unique[new_ref]:
                index = full(build_tbl, new_ref.column)
                span = direct_span(index, full(probe_tbl, old_ref.column))
                found = unique_lookup(
                    index, span, build_tbl.values(new_ref.column), build_rows, probe_keys
                )
                keep = found >= 0
                total = int(np.count_nonzero(keep))
                self._guard(total, query)
                if total < found.shape[0]:
                    inter = {t: idx[keep] for t, idx in inter.items()}
                    found = found[keep]
                inter[new_table] = found
            else:
                index = self.key_index.restricted(build_tbl, new_ref.column, build_rows)
                probe_pos, counts = match_counts(index, probe_keys)
                total = int(counts.sum())
                self._guard(total, query)
                # Expand: repeat each intermediate row by its match count and
                # gather the matching new-table row indices.
                left_repeat = np.repeat(np.arange(probe_keys.shape[0]), counts)
                gather = expand_matches(index, probe_pos, counts)
                inter = {t: idx[left_repeat] for t, idx in inter.items()}
                inter[new_table] = build_rows[gather]
            pending.remove(edge)

            # Apply every join now internal to the intermediate.
            for j in [j for j in pending if j.left.table in inter and j.right.table in inter]:
                lv = db.table(j.left.table).values(j.left.column)[inter[j.left.table]]
                rv = db.table(j.right.table).values(j.right.column)[inter[j.right.table]]
                keep = lv == rv
                inter = {t: idx[keep] for t, idx in inter.items()}
                pending.remove(j)
        return inter

    def _guard(self, total: int, query: Query) -> None:
        if total > self.max_intermediate_rows:
            raise IntermediateTooLarge(
                f"intermediate of {total} rows exceeds guard "
                f"({self.max_intermediate_rows}) for query {query}"
            )


def execute_cardinality(db: Database, query: Query) -> int:
    """Convenience one-shot exact cardinality (no memoization)."""
    return CardinalityExecutor(db).cardinality(query)
