"""Exact COUNT(*) evaluation of SPJ queries over the columnar store.

Two strategies, picked automatically from the query's compiled
:class:`~repro.sql.joingraph.JoinGraph` (connectivity, tree or not, and the
message schedule depend on ``(tables, joins)`` alone, so each shape derives
them once):

- **Message passing** for acyclic join graphs: the classic
  variable-elimination / semijoin-program trick.  Each filtered table starts
  with per-row weight 1 (implicitly: no array until a message arrives);
  leaves send ``groupby(join_key) -> sum(weight)`` messages toward a root,
  parents multiply the message into their row weights, and the root's
  weight sum is the exact join cardinality.  Runs in near-linear time and
  never materializes the join.

- **Materializing hash join** for cyclic graphs: builds the intermediate
  result table-by-table with hash joins, applying extra (cycle-closing)
  edges as filters.  Guarded by ``max_intermediate_rows`` so pathological
  queries fail loudly instead of exhausting memory.

The numeric kernels (group-by-sum, semi-join lookup, sort-merge/expand
join, key-index cache) live in :mod:`repro.engine.kernels` and are shared
with the oracle's plan interpreter.  The module-level wrappers below
(`_filtered_indices`, `_group_sum`, `_lookup`, ...) are kept as the live
call path on purpose: the oracle's seeded mutations patch these names to
re-introduce known bug classes, so they must remain where the executor
actually dispatches through.

A :class:`CardinalityExecutor` instance memoizes results per query in a
bounded LRU, since optimizers repeatedly ask for the same sub-query
cardinalities (and under serving the query stream is unbounded).

A message between two join columns of non-negative integer ids is a
direct-address table (``np.bincount`` over the key span, read back by
``table[parent_keys]``) instead of a sort and a ``searchsorted``; the span
is read off both columns' cached full-column indexes.

Executing a plan needs every node's count;
:meth:`CardinalityExecutor.plan_cardinalities` produces them in one pass
(one ``data_version`` check, one ``cardinality()`` per node, one filter
evaluation per base table).  The per-node loop it replaced is kept as
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
)
from repro.engine.plans import Plan, PlanNode
from repro.sql.joingraph import join_graph
from repro.sql.query import Query
from repro.storage.catalog import Database

__all__ = ["CardinalityExecutor", "execute_cardinality", "IntermediateTooLarge"]


class IntermediateTooLarge(RuntimeError):
    """Raised when a cyclic-join materialization exceeds the row guard."""


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


def _join_graph_is_tree(query: Query) -> bool:
    """Connected + exactly n-1 edges over distinct table pairs (no cycles,
    and no parallel edges between a table pair, which message passing on a
    single key per edge cannot express): the compiled graph has a message
    schedule."""
    return join_graph(query).schedule is not None


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
    :class:`~repro.engine.kernels.KeyIndexCache`, so repeated cyclic-join
    materializations never re-sort an unchanged column and every message
    reads its key span off the same cached index (that cache keys on
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
        if query.n_tables == 1:
            result = int(self._filtered(query, query.tables[0]).size)
        elif _join_graph_is_tree(query):
            result = self._tree_count(query)
        else:
            result = self._materialized_count(query)
        self._cache.put(key, result)
        return result

    def plan_cardinalities(self, plan: Plan) -> dict[PlanNode, int]:
        """Exact output cardinality of every node of ``plan``, children first.

        One pass: ``data_version`` is checked once, each node is counted
        once (through :meth:`cardinality`, so the memo still answers
        repeated sub-queries), and each base table's filter runs once -- a
        node's sub-query keeps all of the plan query's predicates on its
        tables, so within the pass a table names its row set.  The
        sub-queries are built by ``Query.restrict``, outside the plan
        query's ``subquery`` memo, so none outlives the pass.
        """
        self._sync_version()
        query = plan.query
        self._plan_rows = {}
        try:
            return {
                node: self.cardinality(query.restrict(node.tables))
                for node in reversed(tuple(plan.walk()))
            }
        finally:
            self._plan_rows = None

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

    # -- acyclic: message passing --------------------------------------------------

    def _tree_count(self, query: Query) -> int:
        rows = {t: self._filtered(query, t) for t in query.tables}
        # Unit weights are implicit: a table that has received no message
        # carries None, and its first message *is* its weight vector.
        weights: dict[str, np.ndarray | None] = dict.fromkeys(query.tables)

        # The compiled post-order schedule: children before parents.
        full = self.key_index.full
        for table, parent, my_col, parent_col in join_graph(query).schedule:
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
        # A join query's root has at least one neighbor, hence a message.
        return _weight_total(weights[query.tables[0]])

    # -- cyclic: guarded materialization ---------------------------------------------

    def _materialized_count(self, query: Query) -> int:
        # Greedy table order: start at the smallest filtered table, then
        # repeatedly join in the frontier neighbor with the smallest build
        # side.  (Declaration order used to decide ties among frontier
        # edges, which could force a huge table in before a tiny one and
        # trip the intermediate guard on queries a better order completes.)
        # A tie on size goes to the first table by name, so the join order
        # never depends on the process's string-hash seed.
        rows = {t: self._filtered(query, t) for t in query.tables}
        remaining = set(query.tables)
        start = min(query.tables, key=lambda t: (rows[t].size, t))
        inter: dict[str, np.ndarray] = {start: rows[start]}
        remaining.discard(start)
        done_edges: set[int] = set()

        def _build_table(join) -> str:
            return join.right.table if join.left.table in inter else join.left.table

        while remaining:
            candidates = [
                (i, j)
                for i, j in enumerate(query.joins)
                if i not in done_edges
                and (
                    (j.left.table in inter) != (j.right.table in inter)
                )
            ]
            if not candidates:
                raise AssertionError("connected query ran out of join edges")
            edge_i, edge = min(candidates, key=lambda c: rows[_build_table(c[1])].size)
            if edge.left.table in inter:
                old_ref, new_ref = edge.left, edge.right
            else:
                old_ref, new_ref = edge.right, edge.left
            new_table = new_ref.table

            build_rows = rows[new_table]
            index = self.key_index.restricted(
                self.db.table(new_table), new_ref.column, build_rows
            )
            probe_keys = self.db.table(old_ref.table).values(old_ref.column)[
                inter[old_ref.table]
            ]
            probe_pos, counts = match_counts(index, probe_keys)
            total = int(counts.sum())
            if total > self.max_intermediate_rows:
                raise IntermediateTooLarge(
                    f"intermediate of {total} rows exceeds guard "
                    f"({self.max_intermediate_rows}) for query {query}"
                )
            # Expand: repeat each intermediate row by its match count and
            # gather the matching new-table row indices.
            left_repeat = np.repeat(np.arange(probe_keys.shape[0]), counts)
            gather = expand_matches(index, probe_pos, counts)
            inter = {t: idx[left_repeat] for t, idx in inter.items()}
            inter[new_table] = build_rows[gather]
            remaining.discard(new_table)
            done_edges.add(edge_i)

            # Apply any cycle-closing edges now internal to the intermediate.
            for i, j in enumerate(query.joins):
                if i in done_edges:
                    continue
                if j.left.table in inter and j.right.table in inter:
                    lv = self.db.table(j.left.table).values(j.left.column)[
                        inter[j.left.table]
                    ]
                    rv = self.db.table(j.right.table).values(j.right.column)[
                        inter[j.right.table]
                    ]
                    keep = lv == rv
                    inter = {t: idx[keep] for t, idx in inter.items()}
                    done_edges.add(i)
        first = next(iter(inter.values()))
        return int(first.shape[0])


def execute_cardinality(db: Database, query: Query) -> int:
    """Convenience one-shot exact cardinality (no memoization)."""
    return CardinalityExecutor(db).cardinality(query)
