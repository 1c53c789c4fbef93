"""Columnar tables backed by numpy arrays.

Columns are integer- or float-valued; categorical data is stored
integer-coded (the dictionary lives with the workload generator, not the
storage layer, since every surveyed estimator operates on coded values).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Column", "Table"]


@dataclass
class Column:
    """A named column of a table.

    Attributes
    ----------
    name:
        Column name, unique within its table.
    values:
        1-D numpy array (int64 or float64).
    is_key:
        True when the column is a (unique) primary key -- used by the
        optimizer's statistics and by FK-join cardinality bounds.
    """

    name: str
    values: np.ndarray
    is_key: bool = False

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values)
        if self.values.ndim != 1:
            raise ValueError(f"column {self.name!r} must be 1-D")
        if self.values.dtype.kind not in "if":
            raise ValueError(
                f"column {self.name!r} must be numeric, got {self.values.dtype}"
            )
        if self.is_key and self.values.size and (
            np.unique(self.values).size != self.values.size
        ):
            raise ValueError(f"key column {self.name!r} contains duplicates")

    @property
    def n_distinct(self) -> int:
        return int(np.unique(self.values).size)

    @property
    def min(self) -> float:
        return float(self.values.min()) if self.values.size else 0.0

    @property
    def max(self) -> float:
        return float(self.values.max()) if self.values.size else 0.0


class Table:
    """A named collection of equal-length columns."""

    def __init__(self, name: str, columns: list[Column]) -> None:
        if not columns:
            raise ValueError(f"table {name!r} needs at least one column")
        lengths = {c.values.shape[0] for c in columns}
        if len(lengths) != 1:
            raise ValueError(f"table {name!r} has ragged columns: {lengths}")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise ValueError(f"table {name!r} has duplicate column names")
        self.name = name
        self.columns: dict[str, Column] = {c.name: c for c in columns}
        self.n_rows = columns[0].values.shape[0]
        # Bumped on every mutation; cardinality caches key on it so cached
        # estimates never survive data drift.
        self.data_version = 0
        # The databases holding this table: each keeps the sum of its
        # tables' versions, and a mutation bumps it here.
        self._databases: list = []

    def __repr__(self) -> str:
        return f"Table({self.name!r}, rows={self.n_rows}, cols={list(self.columns)})"

    def __contains__(self, column: str) -> bool:
        return column in self.columns

    def column(self, name: str) -> Column:
        try:
            return self.columns[name]
        except KeyError:
            raise KeyError(
                f"table {self.name!r} has no column {name!r}; "
                f"available: {sorted(self.columns)}"
            ) from None

    def values(self, name: str) -> np.ndarray:
        return self.column(name).values

    @property
    def column_names(self) -> list[str]:
        return list(self.columns)

    def matrix(self, column_names: list[str]) -> np.ndarray:
        """Stack the given columns into an ``[n_rows, n_cols]`` float matrix."""
        return np.column_stack([self.values(n).astype(float) for n in column_names])

    def append_rows(self, rows: dict[str, np.ndarray]) -> None:
        """Append rows given as a dict of column-name -> values.

        Used by the dynamic-data (drift) experiments.  All columns of the
        table must be present and of equal length.
        """
        missing = set(self.columns) - set(rows)
        if missing:
            raise ValueError(f"append missing columns: {sorted(missing)}")
        lengths = {np.asarray(v).shape[0] for v in rows.values()}
        if len(lengths) != 1:
            raise ValueError("appended columns have unequal lengths")
        for name, col in self.columns.items():
            new = np.asarray(rows[name]).astype(col.values.dtype)
            col.values = np.concatenate([col.values, new])
            if col.is_key and np.unique(col.values).size != col.values.size:
                raise ValueError(f"append violates key uniqueness on {name!r}")
        self.n_rows += next(iter(lengths))
        self.data_version += 1
        for db in self._databases:
            db._data_version += 1
