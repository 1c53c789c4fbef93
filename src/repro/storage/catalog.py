"""Database catalog: named tables plus the declared equi-join graph."""

from __future__ import annotations

from dataclasses import dataclass

from repro.storage.table import Table

__all__ = ["JoinEdge", "Database"]


@dataclass(frozen=True)
class JoinEdge:
    """A declared equi-join edge ``left_table.left_column = right_table.right_column``."""

    left_table: str
    left_column: str
    right_table: str
    right_column: str

    def involves(self, table: str) -> bool:
        return table in (self.left_table, self.right_table)

    def other(self, table: str) -> str:
        if table == self.left_table:
            return self.right_table
        if table == self.right_table:
            return self.left_table
        raise ValueError(f"{table!r} not part of edge {self}")

    def column_of(self, table: str) -> str:
        if table == self.left_table:
            return self.left_column
        if table == self.right_table:
            return self.right_column
        raise ValueError(f"{table!r} not part of edge {self}")

    def normalized(self) -> "JoinEdge":
        """Canonical orientation (lexicographic) for set membership."""
        if (self.left_table, self.left_column) <= (self.right_table, self.right_column):
            return self
        return JoinEdge(
            self.right_table, self.right_column, self.left_table, self.left_column
        )


class Database:
    """A collection of tables and the join edges between them.

    The join graph declares which column pairs are joinable (typically
    PK-FK relationships, but STATS-style non-key joins are allowed too);
    workload generators draw connected subgraphs from it.
    """

    def __init__(self, name: str, tables: list[Table], joins: list[JoinEdge]) -> None:
        self.name = name
        self.tables: dict[str, Table] = {}
        for t in tables:
            if t.name in self.tables:
                raise ValueError(f"duplicate table {t.name!r}")
            self.tables[t.name] = t
        for edge in joins:
            self._validate_edge(edge)
        self.joins = [e.normalized() for e in joins]
        self._data_version = 0
        for t in tables:
            self._hold(t)

    def _hold(self, table: Table) -> None:
        """Count ``table``'s version and every later bump of it."""
        table._databases.append(self)
        self._data_version += table.data_version

    def add_table(self, table: Table) -> None:
        """Attach ``table`` (a name not taken yet) to the live database."""
        if table.name in self.tables:
            raise ValueError(f"duplicate table {table.name!r}")
        self.tables[table.name] = table
        self._hold(table)

    def _validate_edge(self, edge: JoinEdge) -> None:
        for tbl, col in (
            (edge.left_table, edge.left_column),
            (edge.right_table, edge.right_column),
        ):
            if tbl not in self.tables:
                raise ValueError(f"join edge references unknown table {tbl!r}")
            if col not in self.tables[tbl]:
                raise ValueError(f"join edge references unknown column {tbl}.{col}")

    def __repr__(self) -> str:
        return (
            f"Database({self.name!r}, tables={list(self.tables)}, "
            f"joins={len(self.joins)})"
        )

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise KeyError(
                f"database {self.name!r} has no table {name!r}; "
                f"available: {sorted(self.tables)}"
            ) from None

    @property
    def table_names(self) -> list[str]:
        return list(self.tables)

    @property
    def data_version(self) -> int:
        """Monotone counter over all table mutations: the sum of the tables'
        ``data_version``, kept up to date by :meth:`Table.append_rows`."""
        return self._data_version

    def edges_for(self, table: str) -> list[JoinEdge]:
        return [e for e in self.joins if e.involves(table)]

    def neighbors(self, table: str) -> set[str]:
        return {e.other(table) for e in self.edges_for(table)}

    def total_rows(self) -> int:
        return sum(t.n_rows for t in self.tables.values())
