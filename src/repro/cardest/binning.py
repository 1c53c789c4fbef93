"""Column discretization shared by the data-driven estimators.

Naru/BN/SPN-style models operate on discrete, modest-domain columns.  A
:class:`ColumnBinner` maps raw column values to bin ids: exact value
dictionaries for small domains, equi-depth bins otherwise.  Predicates are
translated into sets of admissible bins, with an equality-correction factor
for coarse bins (a point predicate selects ~1/ndv(bin) of a bin's mass).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sql.query import Op, OrPredicate, Predicate
from repro.storage.table import Table

__all__ = ["ColumnBinner", "DiscretizedTable", "predicate_bins"]


class ColumnBinner:
    """Maps one column's values to integer bins and predicates to bin sets."""

    def __init__(self, values: np.ndarray, max_bins: int = 32) -> None:
        values = np.asarray(values)
        uniq = np.unique(values)
        if uniq.size <= max_bins:
            self.kind = "exact"
            self.values_ = uniq.astype(float)
            self.n_bins = max(int(uniq.size), 1)
            self._distinct_per_bin = np.ones(self.n_bins)
        else:
            self.kind = "equidepth"
            qs = np.linspace(0.0, 1.0, max_bins + 1)
            edges = np.quantile(values.astype(float), qs)
            # Collapse duplicate edges (heavy skew) while keeping coverage.
            edges = np.unique(edges)
            if edges.size < 2:
                edges = np.array([edges[0], edges[0] + 1.0])
            self.edges_ = edges
            self.n_bins = edges.size - 1
            codes = self.bin_of(values)
            self._distinct_per_bin = np.ones(self.n_bins)
            for b in range(self.n_bins):
                sel = values[codes == b]
                self._distinct_per_bin[b] = max(np.unique(sel).size, 1)

    def bin_of(self, values: np.ndarray) -> np.ndarray:
        """Bin ids for raw values (unseen values clamp to edge bins)."""
        values = np.asarray(values, dtype=float)
        if self.kind == "exact":
            pos = np.searchsorted(self.values_, values)
            return np.clip(pos, 0, self.n_bins - 1).astype(np.int64)
        pos = np.searchsorted(self.edges_, values, side="right") - 1
        return np.clip(pos, 0, self.n_bins - 1).astype(np.int64)

    def bins_for_predicate(self, pred) -> tuple[np.ndarray, float]:
        """Admissible bins and a multiplicative correction factor.

        Disjunctions (:class:`repro.sql.query.OrPredicate`) take the union
        of their parts' bins; the correction factor is the bin-count
        weighted average of the parts' factors over the union
        (approximation: overlapping parts are not double-discounted).

        For exact binners the bin set is exact and the factor is 1.  For
        equi-depth binners a point/IN predicate selects whole bins, so the
        correction ``1/ndv(bin)`` (averaged over the selected bins) scales
        the over-covered mass down; range predicates select covering bins
        with factor 1 (boundary-bin overcoverage is the usual
        discretization error).
        """
        if isinstance(pred, OrPredicate):
            union = np.zeros(0, dtype=np.int64)
            weighted = 0.0
            for part in pred.parts:
                bins, factor = self.bins_for_predicate(part)
                weighted += factor * bins.size
                union = np.union1d(union, bins)
            if union.size == 0:
                return union, 1.0
            return union.astype(np.int64), float(min(weighted / union.size, 1.0))
        if self.kind == "exact":
            if pred.op in (Op.EQ, Op.IN):
                wanted = (
                    [float(pred.value)]  # type: ignore[arg-type]
                    if pred.op is Op.EQ
                    else [float(v) for v in pred.value]  # type: ignore[union-attr]
                )
                bins = []
                for v in wanted:
                    pos = int(np.searchsorted(self.values_, v))
                    if pos < self.n_bins and self.values_[pos] == v:
                        bins.append(pos)
                return np.array(sorted(set(bins)), dtype=np.int64), 1.0
            lo, hi = pred.to_range()
            mask = (self.values_ >= lo) & (self.values_ <= hi)
            return np.flatnonzero(mask).astype(np.int64), 1.0

        if pred.op in (Op.EQ, Op.IN):
            wanted = (
                [float(pred.value)]  # type: ignore[arg-type]
                if pred.op is Op.EQ
                else [float(v) for v in pred.value]  # type: ignore[union-attr]
            )
            bins = sorted(set(int(self.bin_of(np.array([v]))[0]) for v in wanted))
            bins_arr = np.array(bins, dtype=np.int64)
            if bins_arr.size == 0:
                return bins_arr, 1.0
            # Each wanted value takes ~1/ndv of its bin.
            factor = float(
                len(wanted) / max(self._distinct_per_bin[bins_arr].sum(), 1.0)
            )
            return bins_arr, min(factor, 1.0)
        lo, hi = pred.to_range()
        lo_bin = 0 if lo == -np.inf else int(self.bin_of(np.array([lo]))[0])
        hi_bin = self.n_bins - 1 if hi == np.inf else int(self.bin_of(np.array([hi]))[0])
        return np.arange(lo_bin, hi_bin + 1, dtype=np.int64), 1.0


@dataclass
class DiscretizedTable:
    """Integer-coded view of a table used by the data-driven models."""

    table: str
    column_names: list[str]
    binners: dict[str, ColumnBinner]
    codes: np.ndarray  # [n_rows, n_cols] int64

    @classmethod
    def build(
        cls,
        table: Table,
        columns: list[str],
        max_bins: int = 32,
    ) -> "DiscretizedTable":
        binners = {c: ColumnBinner(table.values(c), max_bins) for c in columns}
        codes = np.column_stack([binners[c].bin_of(table.values(c)) for c in columns])
        return cls(table=table.name, column_names=list(columns), binners=binners, codes=codes)

    @property
    def domain_sizes(self) -> list[int]:
        return [self.binners[c].n_bins for c in self.column_names]

    def column_index(self, column: str) -> int:
        try:
            return self.column_names.index(column)
        except ValueError:
            raise KeyError(
                f"column {column!r} not discretized for table {self.table!r}"
            ) from None


def predicate_bins(
    disc: DiscretizedTable, predicates: tuple[Predicate, ...]
) -> tuple[list[np.ndarray | None], float]:
    """Per-column admissible bins for a conjunction of predicates.

    Returns (allowed, correction): ``allowed[i]`` is None when column ``i``
    is unconstrained, else the sorted array of admissible bin ids (empty
    array => provably empty result).  ``correction`` multiplies the model's
    box probability (equality-in-coarse-bin adjustment).
    """
    allowed: list[np.ndarray | None] = [None] * len(disc.column_names)
    correction = 1.0
    for pred in predicates:
        idx = disc.column_index(pred.column.column)
        bins, factor = disc.binners[pred.column.column].bins_for_predicate(pred)
        correction *= factor
        if allowed[idx] is None:
            allowed[idx] = bins
        else:
            allowed[idx] = np.intersect1d(allowed[idx], bins)
    return allowed, correction
