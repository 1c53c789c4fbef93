"""Optimizer statistics: equi-depth histograms, MCVs and distinct counts.

The classic ANALYZE-style summaries PostgreSQL keeps per column, built once
over the data and refreshable after appends (the drift experiments exercise
stale-statistics behaviour by *not* refreshing).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.storage.catalog import Database
from repro.storage.table import Table

__all__ = ["ColumnStats", "TableStats", "DatabaseStats"]

#: most common values kept per column (PostgreSQL keeps a target-sized list)
N_MCV = 10


@dataclass
class ColumnStats:
    """Per-column summary: bounds, NDV, MCVs and an equi-depth histogram.

    ``histogram_bounds`` holds ``n_bins + 1`` edges of equi-depth buckets
    computed over the non-MCV values; ``mcv_values``/``mcv_freqs`` hold the
    most common values and their frequency *fractions* (of all rows).
    """

    n_rows: int
    n_distinct: int
    min_value: float
    max_value: float
    mcv_values: np.ndarray
    mcv_freqs: np.ndarray
    histogram_bounds: np.ndarray
    #: fraction of rows not covered by the MCV list
    non_mcv_fraction: float

    @classmethod
    def build(cls, values: np.ndarray, n_bins: int = 32) -> "ColumnStats":
        values = np.asarray(values)
        n = values.shape[0]
        if n == 0:
            return cls(0, 0, 0.0, 0.0, np.zeros(0), np.zeros(0), np.zeros(0), 0.0)
        uniq, counts = np.unique(values, return_counts=True)
        order = np.argsort(counts)[::-1]
        take = min(N_MCV, uniq.shape[0])
        mcv_idx = order[:take]
        mcv_values = uniq[mcv_idx].astype(float)
        mcv_freqs = counts[mcv_idx] / n
        rest_mask = ~np.isin(values, uniq[mcv_idx])
        rest = np.sort(values[rest_mask].astype(float))
        if rest.size >= 2:
            qs = np.linspace(0.0, 1.0, n_bins + 1)
            bounds = np.quantile(rest, qs)
        elif rest.size == 1:
            bounds = np.array([rest[0], rest[0]])
        else:
            bounds = np.zeros(0)
        return cls(
            n_rows=n,
            n_distinct=int(uniq.shape[0]),
            min_value=float(values.min()),
            max_value=float(values.max()),
            mcv_values=mcv_values,
            mcv_freqs=mcv_freqs,
            histogram_bounds=bounds,
            non_mcv_fraction=float(rest_mask.mean()),
        )

    # -- selectivity primitives ---------------------------------------------------

    def eq_selectivity(self, value: float) -> float:
        """Selectivity of ``col = value``.

        Literals outside the column's ``[min_value, max_value]`` domain
        match no rows and estimate 0 -- the non-MCV fallback only applies
        to in-domain values the MCV list does not cover.
        """
        if self.n_rows == 0:
            return 0.0
        if value < self.min_value or value > self.max_value:
            return 0.0
        hit = np.nonzero(self.mcv_values == value)[0]
        if hit.size:
            return float(self.mcv_freqs[hit[0]])
        n_non_mcv_distinct = max(self.n_distinct - self.mcv_values.shape[0], 1)
        return self.non_mcv_fraction / n_non_mcv_distinct

    def range_selectivity(
        self,
        lo: float,
        hi: float,
        *,
        inclusive_lo: bool = True,
        inclusive_hi: bool = True,
    ) -> float:
        """Selectivity of ``lo <= col <= hi`` (either side may be +/-inf).

        ``inclusive_lo``/``inclusive_hi`` mark each endpoint closed (the
        default) or open, so strict ``<``/``>`` predicates are represented
        exactly instead of via an epsilon shift of the literal.  Openness
        only matters for point masses sitting exactly on an endpoint: MCVs
        and degenerate histogram buckets on an open endpoint are excluded;
        the continuous within-bucket interpolation is unaffected.
        """
        if self.n_rows == 0:
            return 0.0
        if lo > hi or (lo == hi and not (inclusive_lo and inclusive_hi)):
            return 0.0

        def point_in_range(p: np.ndarray):
            above = p >= lo if inclusive_lo else p > lo
            return above & (p <= hi if inclusive_hi else p < hi)

        sel = 0.0
        # MCV contribution: exact point masses.
        if self.mcv_values.size:
            sel += float(self.mcv_freqs[point_in_range(self.mcv_values)].sum())
        # Histogram contribution: linear interpolation within buckets.  A
        # bucket the range misses covers max(negative, 0) = 0 of itself.
        bounds = self.histogram_bounds
        if bounds.size >= 2 and self.non_mcv_fraction > 0:
            n_bins = bounds.size - 1
            b_lo, b_hi = bounds[:-1], bounds[1:]
            point = b_hi == b_lo
            covered = np.minimum(b_hi, hi) - np.maximum(b_lo, lo)
            terms = np.maximum(covered, 0.0) / np.where(point, 1.0, b_hi - b_lo)
            if point.any():
                # Degenerate bucket: a point mass at b_lo.  It counts only
                # when that point actually satisfies the (possibly open)
                # interval -- merely touching an excluded endpoint
                # contributes nothing.
                terms[point] = point_in_range(b_lo[point])
            # Added bucket by bucket, left to right, as the scalar loop this
            # replaced did: np.sum (pairwise) and sum (compensated on 3.12+)
            # would move the low bits of every estimate.
            frac = np.cumsum(terms)[-1]
            sel += (frac / n_bins) * self.non_mcv_fraction
        return min(max(sel, 0.0), 1.0)


@dataclass
class TableStats:
    """Statistics for all columns of one table."""

    table: str
    n_rows: int
    columns: dict[str, ColumnStats] = field(default_factory=dict)

    @classmethod
    def build(cls, table: Table, n_bins: int = 32) -> "TableStats":
        stats = cls(table=table.name, n_rows=table.n_rows)
        for name in table.column_names:
            stats.columns[name] = ColumnStats.build(table.values(name), n_bins=n_bins)
        return stats

    def column(self, name: str) -> ColumnStats:
        try:
            return self.columns[name]
        except KeyError:
            raise KeyError(
                f"no statistics for column {self.table}.{name}"
            ) from None


class DatabaseStats:
    """ANALYZE output for a whole database."""

    def __init__(self, tables: dict[str, TableStats]) -> None:
        self.tables = tables

    @classmethod
    def build(cls, db: Database, n_bins: int = 32) -> "DatabaseStats":
        return cls(
            {
                name: TableStats.build(table, n_bins=n_bins)
                for name, table in db.tables.items()
            }
        )

    def table(self, name: str) -> TableStats:
        try:
            return self.tables[name]
        except KeyError:
            raise KeyError(f"no statistics for table {name!r}") from None

    def refresh(self, db: Database, tables: list[str] | None = None) -> None:
        """Re-ANALYZE the given tables (all when None); used after appends."""
        names = tables if tables is not None else list(db.tables)
        for name in names:
            self.tables[name] = TableStats.build(db.table(name))
