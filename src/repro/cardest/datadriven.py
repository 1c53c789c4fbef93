"""Data-driven learned cardinality estimators (paper §2.1.1, Table 1).

Unsupervised models of the joint data distribution:

- :class:`KDEEstimator` / :class:`JoinKDEEstimator` -- kernel density
  models [14, 21];
- :class:`NaruEstimator` -- deep autoregressive model with progressive
  sampling [71];
- :class:`NeuroCardEstimator` -- a single autoregressive model over join
  samples (:mod:`repro.cardest.neurocard`) [70];
- :class:`BayesNetEstimator` -- Chow-Liu tree Bayesian network with exact
  tree inference [57, 65];
- :class:`SPNEstimator` / :class:`FSPNEstimator` -- sum-product networks
  and their factorized extension (:mod:`repro.cardest.spn`) [17, 81];
- :class:`FactorJoinEstimator` -- per-table conditioning + binned join-key
  message passing (:mod:`repro.cardest.factorjoin`) [64].

Single-table models compose join estimates under join uniformity (see
:mod:`repro.cardest.joinutil`); NeuroCard and FactorJoin instead model the
join itself, which is exactly the axis the STATS benchmark [12]
differentiates.
"""

from __future__ import annotations

import math
import zlib

import numpy as np

from repro.cardest.base import BaseCardinalityEstimator
from repro.cardest.binning import DiscretizedTable, predicate_bins
from repro.cardest.joinutil import UnfilteredJoinSizes, uniform_join_estimate
from repro.cardest.factorjoin import FactorJoinEstimator
from repro.cardest.neurocard import NeuroCardEstimator
from repro.cardest.spn import FSPNEstimator, SPNEstimator
from repro.ml.autoregressive import MaskedAutoregressiveNetwork
from repro.ml.chowliu import chow_liu_tree
from repro.sql.query import Query
from repro.storage.catalog import Database

__all__ = [
    "KDEEstimator",
    "JoinKDEEstimator",
    "NaruEstimator",
    "NeuroCardEstimator",
    "BayesNetEstimator",
    "SPNEstimator",
    "FSPNEstimator",
    "FactorJoinEstimator",
    "PerTableModelEstimator",
]


class PerTableModelEstimator(BaseCardinalityEstimator):
    """Base for estimators owning one distribution model per table.

    Subclasses implement :meth:`_build_table_model` and
    :meth:`_table_selectivity`; joins compose under join uniformity.
    :meth:`refresh` rebuilds everything from current data (used by the
    drift experiments; *not* calling it models a stale estimator).
    """

    def __init__(self, db: Database) -> None:
        super().__init__(db)
        self._join_sizes = UnfilteredJoinSizes(db)
        self._models: dict[str, object] = {}
        self._build_all()

    def _build_all(self) -> None:
        for name in self.db.table_names:
            self._models[name] = self._build_table_model(name)

    def _refresh(self) -> None:
        """Rebuild the per-table models and join-size cache from the data."""
        self._join_sizes.invalidate()
        self._build_all()

    def _build_table_model(self, table: str) -> object:
        raise NotImplementedError

    def _table_selectivity(self, query: Query, table: str) -> float:
        raise NotImplementedError

    def _model_columns(self, table: str) -> list[str]:
        """The columns a table's model covers: its non-key columns."""
        tbl = self.db.table(table)
        columns = [c for c in tbl.column_names if not tbl.column(c).is_key]
        return columns or tbl.column_names[:1]

    def _estimate(self, query: Query) -> float:
        return uniform_join_estimate(
            query, self._join_sizes, lambda t: self._table_selectivity(query, t)
        )


class _BinnedModelEstimator(PerTableModelEstimator):
    """Per-table models over a :class:`DiscretizedTable`.

    Subclasses set ``max_bins`` and implement :meth:`_fit_binned`; the model
    it returns exposes ``disc`` and ``box_probability(allowed)``.
    """

    max_bins: int

    def _fit_binned(self, disc: DiscretizedTable):
        raise NotImplementedError

    def _build_table_model(self, table: str):
        disc = DiscretizedTable.build(
            self.db.table(table),
            max_bins=self.max_bins,
            columns=self._model_columns(table),
        )
        return self._fit_binned(disc)

    def _table_selectivity(self, query: Query, table: str) -> float:
        preds = query.predicates_on(table)
        if not preds:
            return 1.0
        model = self._models[table]
        usable = tuple(p for p in preds if p.column.column in model.disc.column_names)
        if not usable:
            return 1.0
        allowed, correction = predicate_bins(model.disc, usable)
        return model.box_probability(allowed) * correction


# ---------------------------------------------------------------------------
# Kernel density estimators
# ---------------------------------------------------------------------------


class _TableKDE:
    """Gaussian KDE with diagonal Scott-rule bandwidth over sampled rows."""

    def __init__(
        self, matrix: np.ndarray, columns: list[str], sample: int, rng: np.random.Generator
    ) -> None:
        self.columns = columns
        n = matrix.shape[0]
        take = rng.choice(n, size=min(sample, n), replace=False) if n else np.zeros(0, int)
        self.points = matrix[take]
        m, d = max(self.points.shape[0], 1), max(matrix.shape[1], 1)
        std = matrix.std(axis=0) if n else np.ones(d)
        std[std < 1e-9] = 1.0
        self.bandwidth = std * m ** (-1.0 / (d + 4))
        self.bandwidth[self.bandwidth < 1e-9] = 1e-9

    def box_mass(self, lows: np.ndarray, highs: np.ndarray) -> float:
        """P(lo <= X <= hi) under the KDE (product of per-dim Gaussians)."""
        if self.points.shape[0] == 0:
            return 0.0
        z_hi = (highs[None, :] - self.points) / self.bandwidth[None, :]
        z_lo = (lows[None, :] - self.points) / self.bandwidth[None, :]
        cdf = lambda z: 0.5 * (1.0 + _erf(z / math.sqrt(2.0)))  # noqa: E731
        per_dim = np.clip(cdf(z_hi) - cdf(z_lo), 0.0, 1.0)
        return float(per_dim.prod(axis=1).mean())


def _erf(x: np.ndarray) -> np.ndarray:
    """Vectorized error function (Abramowitz-Stegun 7.1.26, |err| < 1.5e-7)."""
    sign = np.sign(x)
    x = np.abs(x)
    t = 1.0 / (1.0 + 0.3275911 * x)
    poly = t * (
        0.254829592
        + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429)))
    )
    return sign * (1.0 - poly * np.exp(-x * x))


class KDEEstimator(PerTableModelEstimator):
    """Per-table Gaussian KDE (Heimel et al. [14])."""

    name = "kde"
    sample = 600  # rows kept per table

    def __init__(self, db: Database, seed: int = 0) -> None:
        self.seed = seed
        super().__init__(db)

    def _build_table_model(self, table: str) -> _TableKDE:
        columns = self._model_columns(table)
        rng = np.random.default_rng(self.seed + zlib.crc32(table.encode()) % 1000)
        return _TableKDE(self.db.table(table).matrix(columns), columns, self.sample, rng)

    def _table_selectivity(self, query: Query, table: str) -> float:
        preds = query.predicates_on(table)
        if not preds:
            return 1.0
        model: _TableKDE = self._models[table]  # type: ignore[assignment]
        lows = np.full(len(model.columns), -np.inf)
        highs = np.full(len(model.columns), np.inf)
        for pred in preds:
            c = pred.column.column
            if c not in model.columns:
                continue
            i = model.columns.index(c)
            lo, hi = pred.to_range()
            # Integer point predicates become +-0.5 windows so the Gaussian
            # kernel integrates a non-degenerate interval.
            if lo == hi:
                lo, hi = lo - 0.5, hi + 0.5
            lows[i] = max(lows[i], lo)
            highs[i] = min(highs[i], hi)
        return model.box_mass(lows, highs)


class JoinKDEEstimator(KDEEstimator):
    """KDE with sample-estimated join sizes (Kiefer et al. [21]).

    Unlike the base class this does *not* use exact unfiltered join sizes:
    each join edge's size is estimated from sampled join-key frequency
    vectors (``n_l * n_r * sum_v p_l(v) p_r(v)``), as the
    bandwidth-optimized join KDE models do.
    """

    name = "join_kde"

    def __init__(self, db: Database, seed: int = 0) -> None:
        super().__init__(db, seed=seed)
        self._key_samples: dict[tuple[str, str], np.ndarray] = {}
        rng = np.random.default_rng(seed + 7)
        for edge in db.joins:
            for t, c in (
                (edge.left_table, edge.left_column),
                (edge.right_table, edge.right_column),
            ):
                values = db.table(t).values(c)
                take = rng.choice(
                    values.shape[0], size=min(self.sample, values.shape[0]), replace=False
                )
                self._key_samples[(t, c)] = values[take]

    def _join_size(self, query: Query) -> float:
        size = 1.0
        for t in query.tables:
            size *= self.db.table(t).n_rows
        for join in query.joins:
            lt, lc = join.left.table, join.left.column
            rt, rc = join.right.table, join.right.column
            left = self._key_samples.get((lt, lc))
            right = self._key_samples.get((rt, rc))
            if left is None or right is None:
                # Join edge outside the declared graph: fall back to NDV rule.
                ndv = max(
                    np.unique(self.db.table(lt).values(lc)).size,
                    np.unique(self.db.table(rt).values(rc)).size,
                    1,
                )
                size /= ndv
                continue
            vals, lcounts = np.unique(left, return_counts=True)
            rvals, rcounts = np.unique(right, return_counts=True)
            pl = dict(zip(vals.tolist(), (lcounts / left.shape[0]).tolist()))
            match = 0.0
            for v, rc_count in zip(rvals.tolist(), (rcounts / right.shape[0]).tolist()):
                match += pl.get(v, 0.0) * rc_count
            size *= match
        return size

    def _estimate(self, query: Query) -> float:
        card = self._join_size(query)
        for t in query.tables:
            card *= self._table_selectivity(query, t)
        return card


# ---------------------------------------------------------------------------
# Naru: autoregressive model + progressive sampling
# ---------------------------------------------------------------------------


class _TableNaru:
    """MADE over one discretized table + progressive-sampling box queries."""

    def __init__(
        self,
        disc: DiscretizedTable,
        hidden: tuple[int, ...],
        epochs: int,
        n_samples: int,
        seed: int,
    ) -> None:
        self.disc = disc
        self.net = MaskedAutoregressiveNetwork(
            disc.domain_sizes, hidden=hidden, seed=seed
        )
        self.net.fit(disc.codes, epochs=epochs)
        self.n_samples = n_samples
        self._rng = np.random.default_rng(seed + 1)

    def box_probability(self, allowed: list[np.ndarray | None]) -> float:
        return self.net.box_probability(allowed, self.n_samples, self._rng)


class NaruEstimator(_BinnedModelEstimator):
    """Deep autoregressive estimator with progressive sampling (Naru [71])."""

    name = "naru"

    def __init__(self, db: Database, epochs: int = 15, seed: int = 0) -> None:
        """32 bins a column, a (64, 64) MADE, 128 progressive samples."""
        self.max_bins = 32
        self.hidden = (64, 64)
        self.epochs = epochs
        self.n_samples = 128
        self.seed = seed
        super().__init__(db)

    def _fit_binned(self, disc: DiscretizedTable) -> _TableNaru:
        return _TableNaru(disc, self.hidden, self.epochs, self.n_samples, self.seed)


# ---------------------------------------------------------------------------
# Bayesian network (Chow-Liu tree) with exact inference
# ---------------------------------------------------------------------------


class _TableBayesNet:
    """Tree-shaped BN: Chow-Liu structure + smoothed CPTs + exact inference."""

    def __init__(self, disc: DiscretizedTable) -> None:
        alpha = 0.1  # additive smoothing of the marginal and every CPT
        self.disc = disc
        codes = disc.codes
        n_cols = codes.shape[1]
        self.edges = chow_liu_tree(codes) if n_cols > 1 else []
        self.children: dict[int, list[int]] = {i: [] for i in range(n_cols)}
        self.parent: dict[int, int] = {}
        for p, c in self.edges:
            self.children[p].append(c)
            self.parent[c] = p
        self.root = 0
        sizes = disc.domain_sizes
        n = max(codes.shape[0], 1)
        # Root marginal.
        counts = np.bincount(codes[:, self.root], minlength=sizes[self.root]).astype(float)
        self.root_prob = (counts + alpha) / (n + alpha * sizes[self.root])
        # CPTs P(child | parent): [parent_bins, child_bins].
        self.cpts: dict[int, np.ndarray] = {}
        for p, c in self.edges:
            table = np.zeros((sizes[p], sizes[c]))
            np.add.at(table, (codes[:, p], codes[:, c]), 1.0)
            table += alpha
            table /= table.sum(axis=1, keepdims=True)
            self.cpts[c] = table

    def box_probability(self, allowed: list[np.ndarray | None]) -> float:
        """Exact P(X in box) by message passing on the tree."""

        def indicator(col: int) -> np.ndarray:
            size = self.disc.domain_sizes[col]
            if allowed[col] is None:
                return np.ones(size)
            vec = np.zeros(size)
            vec[allowed[col]] = 1.0
            return vec

        def message(col: int) -> np.ndarray:
            """For each value v of col: P(col=v's subtree consistent | col=v)
            times the indicator of col."""
            vec = indicator(col)
            for child in self.children[col]:
                child_msg = message(child)  # [child_bins]
                vec = vec * (self.cpts[child] @ child_msg)
            return vec

        return float((self.root_prob * message(self.root)).sum())


class BayesNetEstimator(_BinnedModelEstimator):
    """Chow-Liu Bayesian network estimator (Tzoumas et al. [57] /
    BayesCard [65]); per-table exact tree inference, join uniformity."""

    name = "bayesnet"
    max_bins = 32

    def _fit_binned(self, disc: DiscretizedTable) -> _TableBayesNet:
        return _TableBayesNet(disc)
