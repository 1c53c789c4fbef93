"""Sum-product network estimators: DeepDB's SPN [17] and FLAT's FSPN [81].

Structure learning follows DeepDB's recipe:

- **product nodes** split columns into (nearly) independent groups, found
  as connected components of the thresholded pairwise-correlation graph;
- **sum nodes** split rows by k-means clustering when columns stay
  dependent;
- **leaves** are per-column smoothed histograms.

The FSPN variant adds **factorize leaves**: when a column pair remains
highly correlated it is modelled by its exact joint (2-D) histogram instead
of forcing further row splits -- FLAT's key idea of separating highly and
weakly correlated attributes.

Probability of a predicate box is computed by a single bottom-up pass, so
estimation is deterministic and fast.  Joins compose under join uniformity
via :class:`repro.cardest.datadriven.PerTableModelEstimator`.
"""

from __future__ import annotations

import numpy as np

from repro.cardest.base import BaseCardinalityEstimator
from repro.cardest.binning import DiscretizedTable, predicate_bins
from repro.cardest.joinutil import UnfilteredJoinSizes, uniform_join_estimate
from repro.ml.cluster import KMeans
from repro.sql.query import Query
from repro.storage.catalog import Database

__all__ = ["SPNEstimator", "FSPNEstimator"]


class _Node:
    def probability(self, allowed: list[np.ndarray | None]) -> float:
        raise NotImplementedError


class _LeafHistogram(_Node):
    """Smoothed histogram over one column."""

    def __init__(self, codes: np.ndarray, col: int, domain: int, alpha: float) -> None:
        self.col = col
        counts = np.bincount(codes, minlength=domain).astype(float)
        self.probs = (counts + alpha) / (counts.sum() + alpha * domain)

    def probability(self, allowed: list[np.ndarray | None]) -> float:
        bins = allowed[self.col]
        if bins is None:
            return 1.0
        return float(self.probs[bins].sum())


class _LeafJoint(_Node):
    """Exact joint histogram over a highly-correlated column pair (FSPN
    factorize leaf)."""

    def __init__(
        self,
        codes_a: np.ndarray,
        codes_b: np.ndarray,
        col_a: int,
        col_b: int,
        dom_a: int,
        dom_b: int,
        alpha: float,
    ) -> None:
        self.col_a, self.col_b = col_a, col_b
        joint = np.zeros((dom_a, dom_b))
        np.add.at(joint, (codes_a, codes_b), 1.0)
        joint += alpha / (dom_a * dom_b)
        self.joint = joint / joint.sum()

    def probability(self, allowed: list[np.ndarray | None]) -> float:
        a_bins = allowed[self.col_a]
        b_bins = allowed[self.col_b]
        rows = self.joint if a_bins is None else self.joint[a_bins, :]
        sub = rows if b_bins is None else rows[:, b_bins]
        return float(sub.sum())


class _ProductNode(_Node):
    def __init__(self, children: list[_Node]) -> None:
        self.children = children

    def probability(self, allowed: list[np.ndarray | None]) -> float:
        p = 1.0
        for child in self.children:
            p *= child.probability(allowed)
        return p


class _SumNode(_Node):
    def __init__(self, weights: np.ndarray, children: list[_Node]) -> None:
        self.weights = weights
        self.children = children

    def probability(self, allowed: list[np.ndarray | None]) -> float:
        return float(
            sum(w * c.probability(allowed) for w, c in zip(self.weights, self.children))
        )


def _correlation_components(
    codes: np.ndarray, cols: list[int], threshold: float
) -> list[list[int]]:
    """Connected components of the |corr| > threshold graph over ``cols``."""
    k = len(cols)
    adj = [[False] * k for _ in range(k)]
    stds = codes[:, cols].std(axis=0)
    for i in range(k):
        for j in range(i + 1, k):
            if stds[i] < 1e-9 or stds[j] < 1e-9:
                continue
            corr = np.corrcoef(codes[:, cols[i]], codes[:, cols[j]])[0, 1]
            if abs(corr) > threshold:
                adj[i][j] = adj[j][i] = True
    seen = [False] * k
    components: list[list[int]] = []
    for start in range(k):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            cur = stack.pop()
            comp.append(cols[cur])
            for nxt in range(k):
                if adj[cur][nxt] and not seen[nxt]:
                    seen[nxt] = True
                    stack.append(nxt)
        components.append(sorted(comp))
    return components


class _SPNBuilder:
    """Recursive DeepDB-style structure learner."""

    #: columns correlated above this stay in one component
    corr_threshold = 0.3
    #: below this many rows, stop looking for dependence
    min_rows = 200

    def __init__(
        self,
        disc: DiscretizedTable,
        factorize_threshold: float | None,
        max_depth: int,
        alpha: float,
        seed: int,
    ) -> None:
        self.disc = disc
        self.factorize_threshold = factorize_threshold
        self.max_depth = max_depth
        self.alpha = alpha
        self.seed = seed

    def build(self, rows: np.ndarray, cols: list[int], depth: int = 0) -> _Node:
        codes = self.disc.codes
        if len(cols) == 1:
            col = cols[0]
            return _LeafHistogram(
                codes[rows, col], col, self.disc.domain_sizes[col], self.alpha
            )
        if (
            self.factorize_threshold is not None
            and len(cols) == 2
            and self._pair_correlation(rows, cols) > self.factorize_threshold
        ):
            a, b = cols
            return _LeafJoint(
                codes[rows, a],
                codes[rows, b],
                a,
                b,
                self.disc.domain_sizes[a],
                self.disc.domain_sizes[b],
                self.alpha,
            )
        components = _correlation_components(
            codes[rows], list(range(len(cols))), self.corr_threshold
        )
        # _correlation_components works on positional indices; map back.
        components = [[cols[i] for i in comp] for comp in components]
        if len(components) > 1:
            return _ProductNode(
                [self.build(rows, comp, depth + 1) for comp in components]
            )
        if rows.shape[0] < self.min_rows or depth >= self.max_depth:
            # Give up on dependence: naive factorization (or a joint leaf
            # for pairs in FSPN mode).
            if self.factorize_threshold is not None and len(cols) == 2:
                a, b = cols
                return _LeafJoint(
                    codes[rows, a], codes[rows, b], a, b,
                    self.disc.domain_sizes[a], self.disc.domain_sizes[b], self.alpha,
                )
            return _ProductNode([self.build(rows, [c], depth + 1) for c in cols])
        # Sum node: split rows by k-means on the (binned) column values.
        km = KMeans(n_clusters=2, seed=self.seed + depth)
        labels = km.fit(codes[rows][:, cols].astype(float)).labels_
        children, weights = [], []
        for k in range(2):
            members = rows[labels == k]
            if members.shape[0] == 0:
                continue
            children.append(self.build(members, cols, depth + 1))
            weights.append(members.shape[0] / rows.shape[0])
        if len(children) == 1:
            return children[0]
        return _SumNode(np.array(weights), children)

    def _pair_correlation(self, rows: np.ndarray, cols: list[int]) -> float:
        a = self.disc.codes[rows, cols[0]]
        b = self.disc.codes[rows, cols[1]]
        if a.std() < 1e-9 or b.std() < 1e-9:
            return 0.0
        return abs(float(np.corrcoef(a, b)[0, 1]))


class _SPNFamilyEstimator(BaseCardinalityEstimator):
    """Shared per-table SPN plumbing (join-uniformity composition)."""

    _factorize_threshold: float | None = None
    alpha = 0.1  # additive smoothing of every leaf histogram
    max_bins = 32
    max_depth = 6  # deepest sum / product split

    def __init__(self, db: Database, seed: int = 0) -> None:
        super().__init__(db)
        self.seed = seed
        self._join_sizes = UnfilteredJoinSizes(db)
        self._models: dict[str, tuple[DiscretizedTable, _Node]] = {}
        self._build_all()

    def _build_all(self) -> None:
        for name in self.db.table_names:
            tbl = self.db.table(name)
            columns = [c for c in tbl.column_names if not tbl.column(c).is_key]
            if not columns:
                columns = tbl.column_names[:1]
            disc = DiscretizedTable.build(tbl, max_bins=self.max_bins, columns=columns)
            builder = _SPNBuilder(
                disc, self._factorize_threshold, self.max_depth, self.alpha, self.seed
            )
            root = builder.build(
                np.arange(disc.codes.shape[0]), list(range(len(disc.column_names)))
            )
            self._models[name] = (disc, root)

    def _refresh(self) -> None:
        """Rebuild from current data (drift recovery)."""
        self._join_sizes.invalidate()
        self._build_all()

    def _table_selectivity(self, query: Query, table: str) -> float:
        preds = query.predicates_on(table)
        if not preds:
            return 1.0
        disc, root = self._models[table]
        usable = tuple(p for p in preds if p.column.column in disc.column_names)
        if not usable:
            return 1.0
        allowed, correction = predicate_bins(disc, usable)
        for bins in allowed:
            if bins is not None and bins.size == 0:
                return 0.0
        return root.probability(allowed) * correction

    def _estimate(self, query: Query) -> float:
        return uniform_join_estimate(
            query, self._join_sizes, lambda t: self._table_selectivity(query, t)
        )


class SPNEstimator(_SPNFamilyEstimator):
    """DeepDB-style sum-product network estimator [17]."""

    name = "spn"
    _factorize_threshold = None


class FSPNEstimator(_SPNFamilyEstimator):
    """FLAT's FSPN [81]: SPN + joint-histogram factorize leaves for highly
    correlated column pairs."""

    name = "fspn"
    _factorize_threshold = 0.6
