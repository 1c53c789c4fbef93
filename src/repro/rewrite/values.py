"""Literal values relations for the IN -> join rewrite.

``col IN (a, b, c)`` is equivalent to an equi-join against a single-column
relation holding exactly the distinct literals: every base row matching the
IN list finds exactly one join partner (the values column is unique), every
other row finds none, so COUNT(*) is preserved.  The catalog materializes
those relations *in place* on the live :class:`~repro.storage.catalog.
Database` -- same object the simulator, auditor and serving stack execute
against -- which is what makes the rewrite servable end to end.

Determinism and cache-safety notes:

- table names are content-addressed (``vals_<sha12>`` over the column and
  the literal list), so the same IN predicate always attaches the same
  relation and repeat attachments are no-ops;
- a fresh :class:`~repro.storage.table.Table` starts at ``data_version 0``,
  so attaching never changes ``db.data_version`` and existing cardinality /
  plan cache entries stay valid;
- integer base columns get integer values relations; non-integral literals
  can never match an integer column, so they are dropped rather than cast
  (casting would invent matches).
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import numpy as np

from repro.sql.query import ColumnRef, Join
from repro.storage.catalog import Database, JoinEdge
from repro.storage.table import Column, Table

__all__ = ["ValuesCatalog"]


class ValuesCatalog:
    """Attach content-addressed literal relations to a live database.

    Parameters
    ----------
    db:
        The database rewritten queries will execute against.
    stats:
        The :class:`~repro.optimizer.statistics.DatabaseStats` kept in
        sync: every new relation is registered via ``stats.refresh`` so the
        planner can cost plans over it immediately.
    """

    prefix = "vals"  # every values relation's table name starts ``vals_``

    def __init__(self, db: Database, stats) -> None:
        self.db = db
        self.stats = stats
        self.attachments = 0
        self.reuses = 0

    def attach(
        self, column: ColumnRef, values: Iterable[float]
    ) -> tuple[str, Join] | None:
        """Materialize the literal relation for ``column IN values``.

        Returns ``(table_name, join)`` where ``join`` equates the base
        column with the relation's ``v`` column, or None when no literal
        can ever match (e.g. all literals non-integral on an int column).
        """
        base = self.db.table(column.table).values(column.column)
        vals = sorted(float(v) for v in set(values))
        if base.dtype.kind == "i":
            vals = [v for v in vals if float(v).is_integer()]
        if not vals:
            return None
        digest = hashlib.sha256(
            f"{column}|{','.join(repr(v) for v in vals)}".encode()
        ).hexdigest()[:12]
        name = f"{self.prefix}_{digest}"
        join = Join(
            ColumnRef(column.table, column.column), ColumnRef(name, "v")
        )
        if name in self.db.tables:
            self.reuses += 1
            return name, join
        arr = np.array(vals, dtype=base.dtype if base.dtype.kind == "i" else np.float64)
        self.db.add_table(Table(name, [Column("v", arr, is_key=True)]))
        self.db.joins.append(
            JoinEdge(column.table, column.column, name, "v").normalized()
        )
        self.stats.refresh(self.db, [name])
        self.attachments += 1
        return name, join
