"""Hybrid cardinality estimators (paper §2.1.1): data + query information.

- :class:`UAEEstimator` [63]: a Naru-style autoregressive data model whose
  estimates are corrected by a supervised residual model trained on query
  feedback -- realizing UAE's "inject workload information into the data
  model" with an explicit correction stage (the differentiable
  progressive-sampling trick is replaced by residual boosting; documented
  substitution).
- :class:`GLUEEstimator` [82]: the general merging framework -- composes
  *any* single-table estimator's per-table results into join estimates.
- :class:`ALECEEstimator` [30]: attention between featurized queries and
  data-aggregation tokens (histogram summaries).  The data tokens are
  recomputed from the live data on :meth:`refresh`, which is what lets
  ALECE track dynamic data without retraining from scratch.
"""

from __future__ import annotations

import math

import numpy as np

from repro.cardest.base import BaseCardinalityEstimator
from repro.cardest.datadriven import NaruEstimator
from repro.cardest.featurize import FlatQueryFeaturizer
from repro.cardest.joinutil import UnfilteredJoinSizes, uniform_join_estimate
from repro.ml.gbdt import GradientBoostedTrees
from repro.ml.nn import Adam
from repro.sql.query import Query
from repro.storage.catalog import Database

__all__ = ["UAEEstimator", "GLUEEstimator", "ALECEEstimator"]


class UAEEstimator(BaseCardinalityEstimator):
    """Unified data + query autoregressive estimator (UAE [63])."""

    name = "uae"

    def __init__(self, db: Database, seed: int = 0, epochs: int = 15) -> None:
        super().__init__(db)
        self._data_model = NaruEstimator(db, epochs=epochs, seed=seed)
        self._correction: GradientBoostedTrees | None = None
        self._featurizer = FlatQueryFeaturizer(db)
        self.seed = seed

    def _fit(self, queries: list[Query], cards: np.ndarray) -> None:
        """Inject workload supervision: fit the residual correction."""
        cards = np.asarray(cards, dtype=float)
        x = self._featurizer.featurize_batch(queries)
        data_logs = np.array(
            [math.log1p(max(self._data_model.estimate(q), 0.0)) for q in queries]
        )
        true_logs = np.log1p(np.maximum(cards, 0.0))
        self._correction = GradientBoostedTrees(
            n_estimators=40, max_depth=4, seed=self.seed
        ).fit(x, true_logs - data_logs)

    def _refresh(self) -> None:
        self._data_model.refresh()

    def _estimate(self, query: Query) -> float:
        base = max(self._data_model.estimate(query), 0.0)
        if self._correction is None:
            return base
        x = self._featurizer.featurize(query)[None, :]
        resid = float(self._correction.predict(x)[0])
        return float(np.expm1(math.log1p(base) + resid))

    def _estimate_batch(self, queries: list[Query]) -> np.ndarray:
        # The data model's progressive sampling consumes its RNG per call,
        # so the data passes stay a loop (in workload order, matching the
        # scalar path); only the correction model runs batched.
        bases = np.array(
            [max(self._data_model.estimate(q), 0.0) for q in queries]
        )
        if self._correction is None:
            return bases
        x = self._featurizer.featurize_batch(queries)
        resid = self._correction.predict(x)
        return np.expm1(np.log1p(bases) + resid)


class GLUEEstimator(BaseCardinalityEstimator):
    """General single-table -> join merging framework (GLUE [82]).

    Wraps any inner estimator that can answer *single-table* queries and
    lifts it to joins: ``card = |unfiltered join| * prod_t sel_t`` where
    each ``sel_t`` comes from the inner estimator on the table's
    single-table sub-query.  Both life-cycle calls pass through to the
    inner model, whichever side it learns from.
    """

    name = "glue"

    def __init__(self, db: Database, single_table_estimator) -> None:
        super().__init__(db)
        if not isinstance(single_table_estimator, BaseCardinalityEstimator):
            raise TypeError("single_table_estimator must be a BaseCardinalityEstimator")
        self.inner = single_table_estimator
        self._join_sizes = UnfilteredJoinSizes(db)

    def _fit(self, queries: list[Query], cards: np.ndarray) -> None:
        self.inner.fit(queries, cards)

    def _refresh(self) -> None:
        self.inner.refresh()
        self._join_sizes.invalidate()

    def _table_selectivity(self, query: Query, table: str) -> float:
        preds = query.predicates_on(table)
        if not preds:
            return 1.0
        single = Query((table,), (), preds)
        est = max(self.inner.estimate(single), 0.0)
        return est / max(self.db.table(table).n_rows, 1)

    def _estimate(self, query: Query) -> float:
        if query.n_tables == 1:
            return max(self.inner.estimate(query), 0.0)
        return uniform_join_estimate(
            query, self._join_sizes, lambda t: self._table_selectivity(query, t)
        )


class ALECEEstimator(BaseCardinalityEstimator):
    """Attention-based estimator over data aggregations (ALECE [30]).

    A single-head dot-product attention layer lets the featurized query
    attend over per-(table, column) *data tokens* (normalized histograms +
    schema one-hots); the attended context concatenated with the query
    features feeds a two-layer head regressing ``log(1 + card)``.

    Data tokens are recomputed from the current table contents by
    :meth:`refresh`, so a trained ALECE adapts to inserts/drift without
    retraining -- the property [30] demonstrates on dynamic workloads.
    """

    name = "alece"
    hist_bins = 16  # histogram resolution of a data token
    head_hidden = 64  # width of the regression head
    lr = 2e-3

    def __init__(self, db: Database, epochs: int = 120, seed: int = 0) -> None:
        super().__init__(db)
        self.featurizer = FlatQueryFeaturizer(db)
        self.epochs = epochs
        rng = np.random.default_rng(seed)
        self._token_cols: list[tuple[str, str]] = list(self.featurizer.index.columns)
        self._edges: dict[tuple[str, str], np.ndarray] = {}
        for t, c in self._token_cols:
            values = db.table(t).values(c).astype(float)
            lo, hi = float(values.min()), float(values.max())
            if hi <= lo:
                hi = lo + 1.0
            self._edges[(t, c)] = np.linspace(lo, hi, self.hist_bins + 1)
        self.tokens = self._build_tokens()

        f_dim = self.featurizer.dim
        t_dim = self.tokens.shape[1]
        k = self.k = 32  # attention width
        s = lambda d: math.sqrt(1.0 / d)  # noqa: E731
        self.wq = rng.normal(0, s(f_dim), (k, f_dim))
        self.wk = rng.normal(0, s(t_dim), (k, t_dim))
        self.wv = rng.normal(0, s(t_dim), (k, t_dim))
        h_in = f_dim + k
        self.w1 = rng.normal(0, math.sqrt(2.0 / h_in), (h_in, self.head_hidden))
        self.b1 = np.zeros(self.head_hidden)
        self.w2 = rng.normal(0, s(self.head_hidden), (self.head_hidden, 1))
        self.b2 = np.zeros(1)
        self._params = [self.wq, self.wk, self.wv, self.w1, self.b1, self.w2, self.b2]
        self._rng = rng
        self._fitted = False

    # -- data tokens -----------------------------------------------------------

    def _build_tokens(self) -> np.ndarray:
        """One token per (table, column): histogram + table/column one-hot."""
        idx = self.featurizer.index
        n_tables = len(idx.tables)
        n_cols = len(self._token_cols)
        tokens = np.zeros((n_cols, self.hist_bins + n_tables + 1))
        for i, (t, c) in enumerate(self._token_cols):
            values = self.db.table(t).values(c).astype(float)
            hist, _ = np.histogram(values, bins=self._edges[(t, c)])
            total = max(hist.sum(), 1)
            tokens[i, : self.hist_bins] = hist / total
            tokens[i, self.hist_bins + idx.table_pos[t]] = 1.0
            tokens[i, -1] = math.log1p(self.db.table(t).n_rows) / 20.0
        return tokens

    def _refresh(self) -> None:
        """Recompute data tokens from the live data (no retraining)."""
        self.tokens = self._build_tokens()

    # -- forward / backward -------------------------------------------------------

    def _forward(self, x: np.ndarray) -> np.ndarray:
        k = self.k
        self._x = x
        self._kmat = self.tokens @ self.wk.T  # [M, k]
        self._vmat = self.tokens @ self.wv.T  # [M, k]
        self._q = x @ self.wq.T  # [B, k]
        scores = self._q @ self._kmat.T / math.sqrt(k)  # [B, M]
        scores -= scores.max(axis=1, keepdims=True)
        e = np.exp(scores)
        self._attn = e / e.sum(axis=1, keepdims=True)
        self._ctx = self._attn @ self._vmat  # [B, k]
        self._h_in = np.concatenate([x, self._ctx], axis=1)
        pre = self._h_in @ self.w1 + self.b1
        self._mask = pre > 0
        self._h = pre * self._mask
        return self._h @ self.w2 + self.b2

    def _backward(self, grad: np.ndarray) -> list[np.ndarray]:
        d_w2 = self._h.T @ grad
        d_b2 = grad.sum(axis=0)
        g = (grad @ self.w2.T) * self._mask
        d_w1 = self._h_in.T @ g
        d_b1 = g.sum(axis=0)
        g_in = g @ self.w1.T
        f_dim = self._x.shape[1]
        d_x_part = g_in[:, :f_dim]  # unused: x is input
        d_ctx = g_in[:, f_dim:]
        d_attn = d_ctx @ self._vmat.T  # [B, M]
        d_v = self._attn.T @ d_ctx  # [M, k]
        # softmax backward
        tmp = (d_attn * self._attn).sum(axis=1, keepdims=True)
        d_scores = self._attn * (d_attn - tmp) / math.sqrt(self.k)
        d_q = d_scores @ self._kmat
        d_k = d_scores.T @ self._q
        d_wq = d_q.T @ self._x
        d_wk = d_k.T @ self.tokens
        d_wv = d_v.T @ self.tokens
        del d_x_part
        return [d_wq, d_wk, d_wv, d_w1, d_b1, d_w2, d_b2]

    # -- training / inference --------------------------------------------------------

    def _fit(self, queries: list[Query], cards: np.ndarray) -> None:
        x = self.featurizer.featurize_batch(queries)
        y = np.log1p(np.maximum(np.asarray(cards, dtype=float), 0.0))[:, None]
        opt = Adam(lr=self.lr)
        n = x.shape[0]
        batch = 64
        for _ in range(self.epochs):
            order = self._rng.permutation(n)
            for start in range(0, n, batch):
                idx = order[start : start + batch]
                pred = self._forward(x[idx])
                grad = 2.0 * (pred - y[idx]) / max(idx.size, 1)
                grads = self._backward(grad)
                opt.step(self._params, grads)
        self._fitted = True

    def _estimate(self, query: Query) -> float:
        if not self._fitted:
            raise RuntimeError("ALECE.estimate called before fit")
        x = self.featurizer.featurize(query)[None, :]
        return float(np.expm1(self._forward(x)[0, 0]))

    def _estimate_batch(self, queries: list[Query]) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError("ALECE.estimate_batch called before fit")
        x = self.featurizer.featurize_batch(queries)
        return np.expm1(self._forward(x)[:, 0])
