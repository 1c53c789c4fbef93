"""Query featurization for the query-driven estimators.

Two featurizers, matching the two model families:

- :class:`FlatQueryFeaturizer` -- one fixed-length vector per query (table
  one-hots, join one-hots, per-column range slots), used by the linear /
  GBDT / plain-MLP estimators [36, 9, 10, 32];
- :class:`MSCNFeaturizer` -- the multi-set representation of MSCN [23]:
  a *table set* (table one-hot + bitmap of a materialized per-table sample
  evaluated against the query's predicates), a *join set* (join-edge
  one-hots) and a *predicate set* (column one-hot + operator one-hot +
  normalized constants).  Robust-MSCN's query masking [45] is provided via
  ``mask_rate`` / ``drop_bitmaps`` switches.
"""

from __future__ import annotations

import numpy as np

from repro.sql.query import ColumnRef, Join, Op, Predicate, Query
from repro.storage.catalog import Database

__all__ = ["FlatQueryFeaturizer", "MSCNFeaturizer"]

_OPS = [Op.EQ, Op.LT, Op.LE, Op.GT, Op.GE, Op.BETWEEN, Op.IN, Op.OR]


class _ColumnIndex:
    """Stable indices for tables, columns and join edges of a database."""

    def __init__(self, db: Database) -> None:
        self.db = db
        self.tables = list(db.table_names)
        self.table_pos = {t: i for i, t in enumerate(self.tables)}
        self.columns: list[tuple[str, str]] = []
        for t in self.tables:
            for c in db.table(t).column_names:
                self.columns.append((t, c))
        self.column_pos = {tc: i for i, tc in enumerate(self.columns)}
        self.join_keys = [
            (e.left_table, e.left_column, e.right_table, e.right_column)
            for e in db.joins
        ]
        # Every declared edge, both ways round, built here in full: a model
        # holding this index must not change as it sees new joins.  An
        # edge's own orientation wins over another edge's reverse.
        join_pos = {k: i for i, k in enumerate(self.join_keys)}
        self._join_of: dict[Join, int] = {}
        for (lt, lc, rt, rc), i in join_pos.items():
            self._join_of[Join(ColumnRef(lt, lc), ColumnRef(rt, rc))] = i
        for (lt, lc, rt, rc), i in join_pos.items():
            self._join_of.setdefault(Join(ColumnRef(rt, rc), ColumnRef(lt, lc)), i)
        self._bounds: dict[tuple[str, str], tuple[float, float]] = {}
        for t, c in self.columns:
            col = db.table(t).column(c)
            self._bounds[(t, c)] = (col.min, col.max)

    def normalize(self, table: str, column: str, value: float) -> float:
        lo, hi = self._bounds[(table, column)]
        if hi <= lo:
            return 0.5
        x = (value - lo) / (hi - lo)
        return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x

    def normalize_range(
        self, table: str, column: str, lo: float, hi: float
    ) -> tuple[float, float]:
        """Normalized ``(lo, hi)`` with open ends mapping to 0 / 1."""
        blo, bhi = self._bounds[(table, column)]
        if bhi <= blo:
            return (0.0 if lo == -np.inf else 0.5, 1.0 if hi == np.inf else 0.5)
        scale = bhi - blo
        if lo == -np.inf:
            lo_n = 0.0
        else:
            x = (lo - blo) / scale
            lo_n = 0.0 if x < 0.0 else 1.0 if x > 1.0 else x
        if hi == np.inf:
            hi_n = 1.0
        else:
            x = (hi - blo) / scale
            hi_n = 0.0 if x < 0.0 else 1.0 if x > 1.0 else x
        return lo_n, hi_n

    def join_index(self, query_join: Join) -> int:
        idx = self._join_of.get(query_join)
        if idx is None:
            raise KeyError(
                f"join {query_join} not in the database's declared join graph"
            )
        return idx


class FlatQueryFeaturizer:
    """Fixed-length query vectors: tables + joins + per-column range slots.

    Per column the 4 slots are ``[has_predicate, lo_norm, hi_norm,
    point_fraction]`` where the point fraction is ``n_values / ndv`` for
    EQ/IN predicates (0 for ranges).
    """

    def __init__(self, db: Database) -> None:
        self.index = _ColumnIndex(db)
        self._ndv = {
            (t, c): max(db.table(t).column(c).n_distinct, 1)
            for t, c in self.index.columns
        }

    @property
    def dim(self) -> int:
        return (
            len(self.index.tables)
            + len(self.index.join_keys)
            + 4 * len(self.index.columns)
        )

    def featurize(self, query: Query) -> np.ndarray:
        idx = self.index
        vec = np.zeros(self.dim)
        for t in query.tables:
            vec[idx.table_pos[t]] = 1.0
        off = len(idx.tables)
        for j in query.joins:
            vec[off + idx.join_index(j)] = 1.0
        off += len(idx.join_keys)
        # Default slots: no predicate, full range.
        for i in range(len(idx.columns)):
            base = off + 4 * i
            vec[base + 1] = 0.0
            vec[base + 2] = 1.0
        # Merge predicates per column (conjunction -> range intersection).
        for pred in query.predicates:
            t, c = pred.column.table, pred.column.column
            i = idx.column_pos[(t, c)]
            base = off + 4 * i
            lo, hi = pred.to_range()
            lo_n, hi_n = idx.normalize_range(t, c, lo, hi)
            if vec[base] == 0.0:
                vec[base] = 1.0
                vec[base + 1], vec[base + 2] = lo_n, hi_n
            else:
                vec[base + 1] = max(vec[base + 1], lo_n)
                vec[base + 2] = min(vec[base + 2], hi_n)
            if pred.op in (Op.EQ, Op.IN):
                n_vals = 1 if pred.op is Op.EQ else len(pred.value)  # type: ignore[arg-type]
                vec[base + 3] = min(n_vals / self._ndv[(t, c)], 1.0)
        return vec

    def _pred_info(self, pred) -> tuple[int, float, float, float]:
        """Per-predicate flat-feature ingredients, memoized on the predicate.

        Returns ``(column_slot, lo_norm, hi_norm, point_fraction)`` with
        ``point_fraction < 0`` meaning "not an EQ/IN predicate".  Predicates
        are immutable (and heavily shared: every sub-query of a join query
        reuses its parent's predicate objects), so the result is cached on
        the predicate itself, tagged with this featurizer's column index --
        the tag keeps memos from different featurizers (whose normalization
        bounds may differ) from colliding.
        """
        idx = self.index
        memo = pred.__dict__.get("_flatfeat")
        if memo is not None and memo[0] is idx:
            return memo[1]
        col = pred.column
        tc = (col.table, col.column)
        slot = 4 * idx.column_pos[tc]
        # Inlined Predicate.to_range() for the scalar ops (same constants);
        # IN and OR (whose predicates have no scalar .value) fall back to
        # the real method.
        op = pred.op
        inf = np.inf
        if op is Op.EQ:
            lo = hi = pred.value
        elif op is Op.LE:
            lo, hi = -inf, pred.value
        elif op is Op.LT:
            lo, hi = -inf, pred.value - 1e-9
        elif op is Op.GE:
            lo, hi = pred.value, inf
        elif op is Op.GT:
            lo, hi = pred.value + 1e-9, inf
        elif op is Op.BETWEEN:
            lo, hi = pred.value
        else:
            lo, hi = pred.to_range()
        lo_n, hi_n = idx.normalize_range(tc[0], tc[1], lo, hi)
        point = -1.0
        if op is Op.EQ or op is Op.IN:
            n_vals = 1 if op is Op.EQ else len(pred.value)  # type: ignore[arg-type]
            point = min(n_vals / self._ndv[tc], 1.0)
        info = (slot, lo_n, hi_n, point)
        object.__setattr__(pred, "_flatfeat", (idx, info))
        return info

    def featurize_batch(self, queries: list[Query]) -> np.ndarray:
        """One feature matrix for N queries, bit-identical to row-stacking
        :meth:`featurize` but several times faster.

        Per-query model inference is featurization-bound (the forward pass
        amortizes almost to nothing in a batch), so this path fills default
        slots vectorized, hoists attribute lookups, and reuses the memoized
        per-predicate ingredients from :meth:`_pred_info`.
        """
        queries = list(queries)
        idx = self.index
        n_tables = len(idx.tables)
        off = n_tables + len(idx.join_keys)
        mat = np.zeros((len(queries), self.dim))
        # Default slots for every column: no predicate, full [0, 1] range.
        mat[:, off + 2 :: 4] = 1.0
        table_pos = idx.table_pos
        join_index = idx.join_index
        pred_info = self._pred_info
        for i, q in enumerate(queries):
            row = mat[i]
            for t in q.tables:
                row[table_pos[t]] = 1.0
            for j in q.joins:
                row[n_tables + join_index(j)] = 1.0
            for pred in q.predicates:
                slot, lo_n, hi_n, point = pred_info(pred)
                base = off + slot
                if row[base] == 0.0:
                    row[base] = 1.0
                    row[base + 1] = lo_n
                    row[base + 2] = hi_n
                else:
                    if lo_n > row[base + 1]:
                        row[base + 1] = lo_n
                    if hi_n < row[base + 2]:
                        row[base + 2] = hi_n
                if point >= 0.0:
                    row[base + 3] = point
        return mat


class MSCNFeaturizer:
    """Multi-set query featurization (MSCN / Robust-MSCN).

    Parameters
    ----------
    db:
        The database (provides schema indices and sample rows).
    seed:
        Sample-draw seed.
    """

    sample_size = 64  # rows in the per-table sample the bitmaps are read off

    def __init__(self, db: Database, seed: int = 0) -> None:
        self.db = db
        self.index = _ColumnIndex(db)
        rng = np.random.default_rng(seed)
        self._samples: dict[str, dict[str, np.ndarray]] = {}
        for t in self.index.tables:
            table = db.table(t)
            n = table.n_rows
            take = rng.choice(n, size=min(self.sample_size, n), replace=False)
            self._samples[t] = {
                c: table.values(c)[take] for c in table.column_names
            }
        # Bitmaps depend only on (table, predicates-on-table); plan
        # enumeration and Bao/Lero re-planning ask for the same pairs over
        # and over, so a small bounded memo pays for itself immediately.
        self._bitmap_cache: dict[tuple, np.ndarray] = {}
        self._bitmap_cache_limit = 4096

    # -- per-set dims ------------------------------------------------------------

    @property
    def table_dim(self) -> int:
        return len(self.index.tables) + self.sample_size

    @property
    def join_dim(self) -> int:
        return max(len(self.index.join_keys), 1)

    @property
    def pred_dim(self) -> int:
        return len(self.index.columns) + len(_OPS) + 2

    def module_dims(self) -> dict[str, int]:
        return {
            "tables": self.table_dim,
            "joins": self.join_dim,
            "preds": self.pred_dim,
        }

    # -- featurization --------------------------------------------------------------

    def _table_bitmap(self, query: Query, table: str) -> np.ndarray:
        preds = query.predicates_on(table)
        key = (table, preds)
        hit = self._bitmap_cache.get(key)
        if hit is not None:
            return hit
        sample = self._samples[table]
        n = next(iter(sample.values())).shape[0] if sample else 0
        bits = np.ones(self.sample_size)
        if n > 0:
            mask = np.ones(n, dtype=bool)
            for pred in preds:
                mask &= pred.evaluate(sample[pred.column.column])
            bits[:n] = mask.astype(float)
            if n < self.sample_size:
                bits[n:] = 0.0
        if len(self._bitmap_cache) >= self._bitmap_cache_limit:
            self._bitmap_cache.clear()
        self._bitmap_cache[key] = bits
        return bits

    def _table_bitmap_fast(self, query: Query, table: str) -> np.ndarray:
        """Identity-memoized bitmap lookup for the batch path.

        The shared ``_bitmap_cache`` keys on the predicate tuple, whose hash
        is not cheap; benchmark loops and repeated plannings present the
        *same query objects* over and over, so the batch path memoizes the
        bitmap directly on the query (tagged with this featurizer) and only
        falls back to the shared cache on first sight.
        """
        memo = query.__dict__.get("_mscn_bitmaps")
        if memo is None:
            memo = {}
            object.__setattr__(query, "_mscn_bitmaps", memo)
        key = (self, table)
        hit = memo.get(key)
        if hit is None:
            hit = self._table_bitmap(query, table)
            memo[key] = hit
        return hit

    def _pred_row_info(self, pred: Predicate) -> tuple[int, int, float, float]:
        """Memoized ``(col_slot, op_slot, lo_norm, hi_norm)`` per predicate.

        Same trick as ``FlatQueryFeaturizer._pred_info``: predicates are
        immutable and shared across sub-queries, so the normalized range is
        computed once per (featurizer, predicate) pair.
        """
        idx = self.index
        memo = pred.__dict__.get("_mscnfeat")
        if memo is not None and memo[0] is idx:
            return memo[1]
        tc = (pred.column.table, pred.column.column)
        lo, hi = pred.to_range()
        lo_n, hi_n = idx.normalize_range(tc[0], tc[1], lo, hi)
        info = (
            idx.column_pos[tc],
            len(idx.columns) + _OPS.index(pred.op),
            lo_n,
            hi_n,
        )
        object.__setattr__(pred, "_mscnfeat", (idx, info))
        return info

    def featurize(
        self,
        query: Query,
        *,
        drop_bitmaps: bool = False,
        mask_rate: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> dict[str, np.ndarray]:
        """Set-dict for one query.

        ``drop_bitmaps`` replaces sample bitmaps with all-ones (Robust-MSCN
        inference-time masking); ``mask_rate`` randomly drops predicate
        elements (training-time augmentation).
        """
        idx = self.index
        table_rows = []
        for t in query.tables:
            onehot = np.zeros(len(idx.tables))
            onehot[idx.table_pos[t]] = 1.0
            bitmap = (
                np.ones(self.sample_size)
                if drop_bitmaps
                else self._table_bitmap(query, t)
            )
            table_rows.append(np.concatenate([onehot, bitmap]))
        tables = np.stack(table_rows)

        if query.joins:
            join_rows = []
            for j in query.joins:
                onehot = np.zeros(self.join_dim)
                onehot[idx.join_index(j)] = 1.0
                join_rows.append(onehot)
            joins = np.stack(join_rows)
        else:
            joins = np.zeros((0, self.join_dim))

        pred_rows = []
        preds: tuple[Predicate, ...] = query.predicates
        if mask_rate > 0.0 and preds:
            rng = rng if rng is not None else np.random.default_rng(0)
            preds = tuple(p for p in preds if rng.random() >= mask_rate)
        for pred in preds:
            t, c = pred.column.table, pred.column.column
            col_onehot = np.zeros(len(idx.columns))
            col_onehot[idx.column_pos[(t, c)]] = 1.0
            op_onehot = np.zeros(len(_OPS))
            op_onehot[_OPS.index(pred.op)] = 1.0
            lo, hi = pred.to_range()
            lo_n, hi_n = idx.normalize_range(t, c, lo, hi)
            pred_rows.append(np.concatenate([col_onehot, op_onehot, [lo_n, hi_n]]))
        preds_arr = (
            np.stack(pred_rows) if pred_rows else np.zeros((0, self.pred_dim))
        )
        return {"tables": tables, "joins": joins, "preds": preds_arr}

    def featurize_workload(
        self, queries: list[Query]
    ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Pre-padded ``{set: (padded [B, S, d], mask [B, S])}`` for N queries.

        Produces exactly what :meth:`repro.ml.setconv.SetConvNet._pad` would
        build from per-query :meth:`featurize` dicts, but fills the padded
        arrays directly -- skipping N intermediate set-dicts and the
        per-element ``np.concatenate``/``np.stack`` calls that dominate
        MSCN's per-query inference cost.  Feed the result to
        ``SetConvNet.predict_padded``.
        """
        queries = list(queries)
        idx = self.index
        b = len(queries)
        n_tables = len(idx.tables)

        s_tab = max(max((q.n_tables for q in queries), default=0), 1)
        s_join = max(max((len(q.joins) for q in queries), default=0), 1)
        s_pred = max(max((len(q.predicates) for q in queries), default=0), 1)
        tab_padded = np.zeros((b, s_tab, self.table_dim))
        tab_mask = np.zeros((b, s_tab))
        join_padded = np.zeros((b, s_join, self.join_dim))
        join_mask = np.zeros((b, s_join))
        pred_padded = np.zeros((b, s_pred, self.pred_dim))
        pred_mask = np.zeros((b, s_pred))

        table_pos = idx.table_pos
        join_index = idx.join_index
        table_bitmap = self._table_bitmap_fast
        pred_row_info = self._pred_row_info
        for i, q in enumerate(queries):
            for k, t in enumerate(q.tables):
                row = tab_padded[i, k]
                row[table_pos[t]] = 1.0
                row[n_tables:] = table_bitmap(q, t)
            tab_mask[i, : q.n_tables] = 1.0
            if q.joins:
                for k, j in enumerate(q.joins):
                    join_padded[i, k, join_index(j)] = 1.0
                join_mask[i, : len(q.joins)] = 1.0
            if q.predicates:
                for k, pred in enumerate(q.predicates):
                    row = pred_padded[i, k]
                    col_slot, op_slot, lo_n, hi_n = pred_row_info(pred)
                    row[col_slot] = 1.0
                    row[op_slot] = 1.0
                    row[-2] = lo_n
                    row[-1] = hi_n
                pred_mask[i, : len(q.predicates)] = 1.0
        return {
            "tables": (tab_padded, tab_mask),
            "joins": (join_padded, join_mask),
            "preds": (pred_padded, pred_mask),
        }
