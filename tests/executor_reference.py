"""The per-node plan executor, kept as the reference.

This is plan execution as it stood before ``CardinalityExecutor.
plan_cardinalities``: :func:`reference_execute` is
``ExecutionSimulator.execute`` with its per-node loop (one
``executor.cardinality(plan.node_subquery(node))`` per node, two more per
join for the children it had already counted, and one single-predicate
probe per index scan with predicates, even when that predicate is the
scan's only one), and
:class:`ReferenceCardinalityExecutor` is the exact executor of that time --
``data_version`` summed on every call, the memo keyed by the ``Query``
itself, every base table's filter re-evaluated by every node that contains
the table, ``np.ones`` unit weights multiplied through
``_weight_product``'s float shadow at every leaf, and the sort-based
:func:`reference_grouped_sums` / ``np.clip``-ed
:func:`reference_lookup_sums`.  The one-pass executor must
return equal ``node_cards`` and bit-equal ``node_costs`` / ``latency_ms``;
``tests/test_plan_execution.py`` asserts that and
``benchmarks/bench_p6_fastpath.py`` uses :func:`reference_execute` as the
baseline.  Do not optimise this file.

The counters are copies too, independent of the live one: ``_tree_count``
is the message pass of that time (its own adjacency build and depth-first
walk per call, explicit unit weights), ``_materialized_count`` the guarded
greedy hash join of every cyclic graph (the whole query materialized,
smallest filtered table first, no lookups, no peeling), and
``_join_graph_is_tree`` picks between them.

The oracle's seeded mutations patch names in ``repro.engine.executor``
(``_filtered_indices``, ``_group_sum``, ``_lookup``, ``_weight_product``,
``_weight_total``, ``CardinalityExecutor._count``).  The reference
dispatches through the same names, looked up on the module at call time;
the two kernels kept below stand in for ``_group_sum`` and ``_lookup``
only while those names still hold the functions they held when this
module was imported -- once a mutation replaces one, the replacement is
called, exactly as the live executor would.  The kept materializer calls
none of the counter's patch points, so while a mutation is installed on
one of them (or on ``_count`` itself) a cyclic query is counted by the live
counter, mutation and all; ``_filtered_indices`` and
``Predicate.evaluate`` mutations reach the copy directly.
"""

from __future__ import annotations

import hashlib

import numpy as np

import repro.engine.executor as live
from repro.engine.executor import CardinalityExecutor, IntermediateTooLarge
from repro.engine.kernels import (
    _INT64_PROMOTE_LIMIT,
    GroupIndex,
    expand_matches,
    match_counts,
)
from repro.engine.plans import JoinNode, Plan, PlanNode, ScanMethod, ScanNode
from repro.engine.simulator import ExecutionResult, ExecutionSimulator, SimulatorConfig
from repro.sql.query import Query
from repro.storage.catalog import Database

__all__ = [
    "ReferenceCardinalityExecutor",
    "reference_execute",
    "reference_grouped_sums",
    "reference_lookup_sums",
    "reference_simulator",
]


def reference_grouped_sums(
    keys: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``kernels.grouped_sums`` with the sort path only."""
    if keys.size == 0:
        return keys, weights
    index = GroupIndex.from_keys(keys)
    ordered = weights[index.perm]
    if ordered.dtype != object:
        shadow = np.add.reduceat(ordered.astype(np.float64), index.start)
        if np.max(shadow, initial=0.0) < _INT64_PROMOTE_LIMIT:
            return index.uniq, np.add.reduceat(ordered, index.start)
        ordered = ordered.astype(object)
    return index.uniq, np.add.reduceat(ordered, index.start)


def reference_lookup_sums(
    uniq: np.ndarray, sums: np.ndarray, keys: np.ndarray
) -> np.ndarray:
    if uniq.size == 0:
        return np.zeros(keys.shape[0], dtype=sums.dtype if sums.size else np.int64)
    pos = np.searchsorted(uniq, keys)
    pos = np.clip(pos, 0, uniq.shape[0] - 1)
    hit = uniq[pos] == keys
    return np.where(hit, sums[pos], 0)


#: The kept bodies under the live signatures; the reference passes
#: explicit unit weights and no span, so it never builds a direct-address
#: message, and an installed mutation sees the same sort-path call.
_KEPT = {
    "_group_sum": lambda keys, weights, span: reference_grouped_sums(keys, weights),
    "_lookup": reference_lookup_sums,
}
_PRISTINE = {name: getattr(live, name) for name in _KEPT}


def _patch_point(name: str):
    """The mutation installed on ``name``, or the kept body when none is."""
    fn = getattr(live, name)
    return _KEPT[name] if fn is _PRISTINE[name] else fn


#: the live counter's patch points the kept materializer dispatches through
#: none of (it sends no message and multiplies no weight)
_COUNTER_POINTS = ("_group_sum", "_lookup", "_weight_product", "_weight_total")
_PRISTINE_COUNTER = {name: getattr(live, name) for name in _COUNTER_POINTS}
_PRISTINE_COUNT = CardinalityExecutor._count


def _counter_mutated() -> bool:
    """True while a mutation is installed on the live counter or one of the
    kernels it dispatches through."""
    return CardinalityExecutor._count is not _PRISTINE_COUNT or any(
        getattr(live, name) is not fn for name, fn in _PRISTINE_COUNTER.items()
    )


def _join_graph_is_tree(query: Query) -> bool:
    """Connected + exactly n-1 edges over distinct table pairs (no cycles,
    and no parallel edges between a table pair, which message passing on a
    single key per edge cannot express)."""
    return query.is_connected() and len(query.joins) == query.n_tables - 1


class ReferenceCardinalityExecutor(CardinalityExecutor):
    """The exact executor, one sub-query at a time."""

    def cardinality(self, query: Query) -> int:
        version = self.db.data_version
        if version != self._cache_version:
            self._cache.clear()
            self._cache_version = version
        cached = self._cache.get(query)
        if cached is not None:
            return cached
        if not query.is_connected():
            raise ValueError(
                f"query join graph is disconnected (cross join unsupported): {query}"
            )
        if query.n_tables == 1:
            result = int(live._filtered_indices(self.db, query, query.tables[0]).size)
        elif _join_graph_is_tree(query):
            result = self._tree_count(query)
        elif _counter_mutated():
            result = CardinalityExecutor._count(self, query)
        else:
            result = self._materialized_count(query)
        self._cache.put(query, result)
        return result

    def _tree_count(self, query: Query) -> int:
        group_sum, lookup = _patch_point("_group_sum"), _patch_point("_lookup")
        adj: dict[str, list[tuple[str, str, str]]] = {t: [] for t in query.tables}
        for j in query.joins:
            adj[j.left.table].append((j.right.table, j.left.column, j.right.column))
            adj[j.right.table].append((j.left.table, j.right.column, j.left.column))

        rows = {t: live._filtered_indices(self.db, query, t) for t in query.tables}
        weights = {
            t: np.ones(rows[t].shape[0], dtype=np.int64) for t in query.tables
        }

        root = query.tables[0]
        order: list[tuple[str, str | None, str | None, str | None]] = []
        stack: list[tuple[str, str | None, str | None, str | None]] = [
            (root, None, None, None)
        ]
        visited = {root}
        while stack:
            entry = stack.pop()
            order.append(entry)
            table = entry[0]
            for neighbor, my_col, their_col in adj[table]:
                if neighbor not in visited:
                    visited.add(neighbor)
                    stack.append((neighbor, table, their_col, my_col))

        for table, parent, my_col, parent_col in reversed(order):
            if parent is None:
                continue
            keys = self.db.table(table).values(my_col)[rows[table]]
            uniq, sums = group_sum(keys, weights[table], None)
            parent_keys = self.db.table(parent).values(parent_col)[rows[parent]]
            weights[parent] = live._weight_product(
                weights[parent], lookup(uniq, sums, parent_keys)
            )
        return live._weight_total(weights[root])

    def _materialized_count(self, query: Query) -> int:
        # Greedy table order: start at the smallest filtered table, then
        # repeatedly join in the frontier neighbor with the smallest build
        # side.  A tie on size goes to the first table by name.
        rows = {t: live._filtered_indices(self.db, query, t) for t in query.tables}
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


def reference_simulator(
    db: Database, config: SimulatorConfig | None = None
) -> ExecutionSimulator:
    """A simulator over its own :class:`ReferenceCardinalityExecutor`."""
    return ExecutionSimulator(db, config, executor=ReferenceCardinalityExecutor(db))


def _reference_scan_cost(simulator: ExecutionSimulator, node: ScanNode) -> float:
    """``ExecutionSimulator._scan_cost`` of that time: an index scan with
    predicates always probes its first one as a single-table query."""
    base_rows = simulator.db.table(node.table).n_rows
    n_preds = len(node.predicates)
    if node.method is ScanMethod.SEQ:
        return simulator.costs.seq_scan(base_rows, n_preds)
    if not node.predicates:
        fetched = base_rows
    else:
        single = Query((node.table,), (), (node.predicates[0],))
        fetched = simulator.executor.cardinality(single)
    return simulator.costs.index_scan(base_rows, fetched, n_preds)


def reference_execute(simulator: ExecutionSimulator, plan: Plan) -> ExecutionResult:
    """``ExecutionSimulator.execute`` with the per-node cardinality loop."""

    def node_cardinality(node: PlanNode) -> int:
        return simulator.executor.cardinality(plan.node_subquery(node))

    node_cards: dict[PlanNode, int] = {}
    node_costs: dict[PlanNode, float] = {}
    total = 0.0
    for node in plan.walk():
        card = node_cardinality(node)
        node_cards[node] = card
        if isinstance(node, ScanNode):
            cost = _reference_scan_cost(simulator, node)
        else:
            assert isinstance(node, JoinNode)
            cost = simulator._join_cost(
                node,
                node_cardinality(node.left),
                node_cardinality(node.right),
                card,
            )
        node_costs[node] = cost
        total += cost

    latency = total * simulator.config.ms_per_cost_unit
    if simulator.config.noise_sigma > 0:
        digest = hashlib.sha256(
            f"{plan.signature()}|{simulator.config.noise_seed}".encode()
        ).digest()
        rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
        latency *= float(np.exp(rng.normal(0.0, simulator.config.noise_sigma)))
    simulator.queries_executed += 1
    simulator.total_latency_ms += latency
    return ExecutionResult(
        plan=plan,
        latency_ms=latency,
        cardinality=node_cards[plan.root],
        total_cost=total,
        node_cards=node_cards,
        node_costs=node_costs,
    )
