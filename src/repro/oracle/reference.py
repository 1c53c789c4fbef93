"""Pure-Python exact COUNT(*) reference, independent of the engine.

The production :class:`repro.engine.CardinalityExecutor` is the repo's
ground-truth oracle -- which means nothing checks *it*.  This module is the
cross-check: a deliberately simple re-implementation that shares **no code**
with the engine (own predicate semantics, own join-graph analysis, own
message passing) and runs entirely in Python-int arithmetic, so it is exact
at any magnitude.  It is orders of magnitude slower than the vectorized
executor and exists only for the differential oracle and its tests.
"""

from __future__ import annotations

from repro.sql.query import Op, Query
from repro.storage.catalog import Database

__all__ = ["ReferenceTooLarge", "reference_count"]


class ReferenceTooLarge(RuntimeError):
    """Raised when the reference materialization exceeds its row guard."""


def _holds(pred, value) -> bool:
    """Scalar predicate semantics, re-implemented from the SQL definition."""
    op = pred.op
    if op is Op.OR:
        return any(_holds(part, value) for part in pred.parts)
    if op is Op.EQ:
        return value == pred.value
    if op is Op.LT:
        return value < pred.value
    if op is Op.LE:
        return value <= pred.value
    if op is Op.GT:
        return value > pred.value
    if op is Op.GE:
        return value >= pred.value
    if op is Op.BETWEEN:
        lo, hi = pred.value
        return lo <= value <= hi
    if op is Op.IN:
        return any(value == v for v in pred.value)
    raise AssertionError(f"unhandled op {op}")


def _filtered_rows(db: Database, query: Query, table: str) -> list[int]:
    tbl = db.table(table)
    preds = query.predicates_on(table)
    if not preds:
        return list(range(tbl.n_rows))
    cols = {p.column.column: tbl.values(p.column.column) for p in preds}
    return [
        i
        for i in range(tbl.n_rows)
        if all(_holds(p, cols[p.column.column][i]) for p in preds)
    ]


def _is_tree(query: Query) -> bool:
    """Acyclic, no parallel edges -- re-derived, not imported."""
    pairs = set()
    for j in query.joins:
        pair = frozenset((j.left.table, j.right.table))
        if pair in pairs:
            return False
        pairs.add(pair)
    return len(pairs) == len(query.tables) - 1


def _message_pass_count(
    db: Database, query: Query, rows: dict[str, list[int]]
) -> int:
    """Dict-based message passing; weights are exact Python ints."""
    adj: dict[str, list[tuple[str, str, str]]] = {t: [] for t in query.tables}
    for j in query.joins:
        adj[j.left.table].append((j.right.table, j.left.column, j.right.column))
        adj[j.right.table].append((j.left.table, j.right.column, j.left.column))

    root = query.tables[0]
    order: list[tuple[str, str | None, str | None, str | None]] = []
    stack: list[tuple[str, str | None, str | None, str | None]] = [
        (root, None, None, None)
    ]
    seen = {root}
    while stack:
        entry = stack.pop()
        order.append(entry)
        for neighbor, my_col, their_col in adj[entry[0]]:
            if neighbor not in seen:
                seen.add(neighbor)
                stack.append((neighbor, entry[0], their_col, my_col))

    weights = {t: [1] * len(rows[t]) for t in query.tables}
    for table, parent, my_col, parent_col in reversed(order):
        if parent is None:
            continue
        keys = db.table(table).values(my_col)
        message: dict = {}
        for i, row in enumerate(rows[table]):
            key = keys[row].item()
            message[key] = message.get(key, 0) + weights[table][i]
        parent_keys = db.table(parent).values(parent_col)
        pw = weights[parent]
        for i, row in enumerate(rows[parent]):
            pw[i] *= message.get(parent_keys[row].item(), 0)
    return sum(weights[root])


def _hash_join_count(
    db: Database, query: Query, rows: dict[str, list[int]], max_rows: int
) -> int:
    """Dict-based hash-join materialization for cyclic join graphs."""
    tables = list(query.tables)
    placed = [tables[0]]
    # tuples: list of dicts table -> row index
    tuples: list[dict[str, int]] = [{tables[0]: r} for r in rows[tables[0]]]
    pending = list(query.joins)
    while len(placed) < len(tables):
        edge = next(
            (
                j
                for j in pending
                if (j.left.table in placed) != (j.right.table in placed)
            ),
            None,
        )
        if edge is None:
            raise ValueError(f"join graph is disconnected: {query}")
        if edge.left.table in placed:
            old_ref, new_ref = edge.left, edge.right
        else:
            old_ref, new_ref = edge.right, edge.left
        new_table = new_ref.table
        build_keys = db.table(new_table).values(new_ref.column)
        buckets: dict = {}
        for r in rows[new_table]:
            buckets.setdefault(build_keys[r].item(), []).append(r)
        probe_keys = db.table(old_ref.table).values(old_ref.column)
        out: list[dict[str, int]] = []
        for tup in tuples:
            for r in buckets.get(probe_keys[tup[old_ref.table]].item(), ()):
                out.append({**tup, new_table: r})
                if len(out) > max_rows:
                    raise ReferenceTooLarge(
                        f"reference intermediate exceeds {max_rows} rows"
                    )
        tuples = out
        placed.append(new_table)
        pending.remove(edge)
        # Apply any join now internal to the materialized tuple set.
        for j in list(pending):
            if j.left.table in placed and j.right.table in placed:
                lv = db.table(j.left.table).values(j.left.column)
                rv = db.table(j.right.table).values(j.right.column)
                tuples = [
                    t
                    for t in tuples
                    if lv[t[j.left.table]] == rv[t[j.right.table]]
                ]
                pending.remove(j)
    return len(tuples)


def reference_count(
    db: Database, query: Query, *, max_rows: int = 1_000_000
) -> int:
    """Exact COUNT(*) of a connected SPJ query, the slow-but-sure way.

    Raises :class:`ReferenceTooLarge` when a cyclic query's intermediate
    would exceed ``max_rows`` (tree-shaped queries never materialize and
    have no such limit).
    """
    rows = {t: _filtered_rows(db, query, t) for t in query.tables}
    if query.n_tables == 1:
        return len(rows[query.tables[0]])
    if _is_tree(query):
        return _message_pass_count(db, query, rows)
    return _hash_join_count(db, query, rows, max_rows)
