"""Query-driven learned cardinality estimators (paper §2.1.1, Table 1).

Supervised models mapping featurized queries to cardinalities:

- :class:`LinearQueryEstimator` -- ridge regression on flat features [36];
- :class:`GBDTQueryEstimator` -- gradient-boosted trees [9, 10];
- :class:`QuickSelEstimator` -- mixture model over query boxes [47];
- :class:`MLPQueryEstimator` -- fully connected network [32];
- :class:`MSCNEstimator` -- multi-set convolutional network [23];
- :class:`RobustMSCNEstimator` -- MSCN with query masking [45];
- :class:`LPCEEstimator` -- initial model + execution-feedback
  refinement [59].

All regress ``log(1 + card)``; :meth:`fit` takes the training workload and
its true cardinalities (collected by executing the workload, which is what
PilotScope's data-collection phase does).
"""

from __future__ import annotations

import numpy as np

from repro.cardest.base import BaseCardinalityEstimator
from repro.cardest.featurize import FlatQueryFeaturizer, MSCNFeaturizer
from repro.cardest.joinutil import UnfilteredJoinSizes, uniform_join_estimate
from repro.ml.gbdt import GradientBoostedTrees
from repro.ml.nn import MLP
from repro.ml.setconv import SetConvNet
from repro.sql.query import Query
from repro.storage.catalog import Database

__all__ = [
    "LinearQueryEstimator",
    "GBDTQueryEstimator",
    "QuickSelEstimator",
    "MLPQueryEstimator",
    "MSCNEstimator",
    "PooledMSCNEstimator",
    "GLPlusEstimator",
    "CRNEstimator",
    "RobustMSCNEstimator",
    "LPCEEstimator",
]


def _log_card(cards: np.ndarray) -> np.ndarray:
    return np.log1p(np.maximum(np.asarray(cards, dtype=float), 0.0))


class _SupervisedFlatEstimator(BaseCardinalityEstimator):
    """Shared plumbing for estimators on flat feature vectors."""

    def __init__(self, db: Database) -> None:
        super().__init__(db)
        self.featurizer = FlatQueryFeaturizer(db)
        self._fitted = False

    def _fit(self, queries: list[Query], cards: np.ndarray) -> None:
        x = self.featurizer.featurize_batch(queries)
        y = _log_card(np.asarray(cards))
        self._fit_impl(x, y)
        self._fitted = True

    def _fit_impl(self, x: np.ndarray, y: np.ndarray) -> None:
        raise NotImplementedError

    def _predict_log(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _estimate(self, query: Query) -> float:
        if not self._fitted:
            raise RuntimeError(f"{type(self).__name__}.estimate called before fit")
        x = self.featurizer.featurize(query)[None, :]
        return float(np.expm1(self._predict_log(x)[0]))

    def _estimate_batch(self, queries: list[Query]) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError(
                f"{type(self).__name__}.estimate_batch called before fit"
            )
        x = self.featurizer.featurize_batch(queries)
        return np.expm1(self._predict_log(x))


class LinearQueryEstimator(_SupervisedFlatEstimator):
    """Ridge regression on flat query features (Malik et al. [36])."""

    name = "linear"
    l2 = 1.0  # ridge strength

    def __init__(self, db: Database) -> None:
        super().__init__(db)
        self._w: np.ndarray | None = None

    def _fit_impl(self, x: np.ndarray, y: np.ndarray) -> None:
        xb = np.column_stack([x, np.ones(x.shape[0])])
        gram = xb.T @ xb + self.l2 * np.eye(xb.shape[1])
        self._w = np.linalg.solve(gram, xb.T @ y)

    def _predict_log(self, x: np.ndarray) -> np.ndarray:
        assert self._w is not None
        xb = np.column_stack([x, np.ones(x.shape[0])])
        return xb @ self._w


class GBDTQueryEstimator(_SupervisedFlatEstimator):
    """Gradient-boosted trees on flat query features (Dutt et al. [9, 10])."""

    name = "gbdt"

    def __init__(self, db: Database, seed: int = 0) -> None:
        super().__init__(db)
        self._model = GradientBoostedTrees(
            n_estimators=60, max_depth=5, learning_rate=0.15, seed=seed
        )

    def _fit_impl(self, x: np.ndarray, y: np.ndarray) -> None:
        self._model.fit(x, y)

    def _predict_log(self, x: np.ndarray) -> np.ndarray:
        return self._model.predict(x)


class MLPQueryEstimator(_SupervisedFlatEstimator):
    """Fully connected network on flat query features (Liu et al. [32])."""

    name = "mlp"

    def __init__(self, db: Database, epochs: int = 120, seed: int = 0) -> None:
        super().__init__(db)
        self.hidden = (64, 64)
        self.epochs = epochs
        self.seed = seed
        self._model: MLP | None = None

    def _fit_impl(self, x: np.ndarray, y: np.ndarray) -> None:
        self._model = MLP(x.shape[1], self.hidden, seed=self.seed)
        self._model.fit(
            x, y, epochs=self.epochs, lr=2e-3, val_fraction=0.1
        )

    def _predict_log(self, x: np.ndarray) -> np.ndarray:
        assert self._model is not None
        out = self._model.predict(x)
        return np.atleast_1d(out)


class QuickSelEstimator(BaseCardinalityEstimator):
    """Mixture model over training-query boxes (QuickSel [47]).

    Per table, the selectivity function is modelled as a weighted mixture
    of uniform distributions on the training queries' predicate boxes; the
    weights solve a ridge-regularized least-squares system matching the
    observed selectivities (QuickSel's quadratic program with an identity
    trust term).  Join queries compose per-table selectivities under join
    uniformity (see :mod:`repro.cardest.joinutil`).
    """

    name = "quicksel"
    l2 = 0.05  # identity trust term of the quadratic program

    def __init__(self, db: Database) -> None:
        super().__init__(db)
        self._featurizer = FlatQueryFeaturizer(db)
        self._join_sizes = UnfilteredJoinSizes(db)
        # per table: (boxes [m, d, 2], weights [m+1], column order)
        self._models: dict[str, tuple[np.ndarray, np.ndarray, list[str]]] = {}

    def _query_box(self, query: Query, table: str, columns: list[str]) -> np.ndarray:
        """Normalized [d, 2] box of the query's predicates on ``table``."""
        box = np.zeros((len(columns), 2))
        box[:, 1] = 1.0
        for pred in query.predicates_on(table):
            c = pred.column.column
            i = columns.index(c)
            lo, hi = pred.to_range()
            lo_n = 0.0 if lo == -np.inf else self._featurizer.index.normalize(table, c, lo)
            hi_n = 1.0 if hi == np.inf else self._featurizer.index.normalize(table, c, hi)
            box[i, 0] = max(box[i, 0], lo_n)
            box[i, 1] = min(box[i, 1], hi_n)
        return box

    @staticmethod
    def _overlap(box_a: np.ndarray, box_b: np.ndarray) -> float:
        """Fraction of box_b's volume inside box_a (uniform mass of b in a)."""
        frac = 1.0
        for d in range(box_a.shape[0]):
            lo = max(box_a[d, 0], box_b[d, 0])
            hi = min(box_a[d, 1], box_b[d, 1])
            width_b = max(box_b[d, 1] - box_b[d, 0], 1e-9)
            frac *= max(hi - lo, 0.0) / width_b
        return frac

    def _fit(self, queries: list[Query], cards: np.ndarray) -> None:
        """Fit per-table mixtures from the single-table training queries."""
        cards = np.asarray(cards, dtype=float)
        per_table: dict[str, list[tuple[Query, float]]] = {}
        for q, card in zip(queries, cards):
            if q.n_tables == 1 and q.predicates:
                t = q.tables[0]
                sel = card / max(self.db.table(t).n_rows, 1)
                per_table.setdefault(t, []).append((q, sel))
        for t, pairs in per_table.items():
            columns = [
                c
                for c in self.db.table(t).column_names
                if not self.db.table(t).column(c).is_key
            ]
            boxes = np.stack([self._query_box(q, t, columns) for q, _ in pairs])
            sels = np.array([s for _, s in pairs])
            m = boxes.shape[0]
            # A[i, j]: mass of mixture component j inside query i's box
            # (+ one uniform background component).
            a = np.empty((m, m + 1))
            for i in range(m):
                for j in range(m):
                    a[i, j] = self._overlap(boxes[i], boxes[j])
                a[i, m] = self._overlap(boxes[i], np.column_stack(
                    [np.zeros(boxes.shape[1]), np.ones(boxes.shape[1])]
                ))
            gram = a.T @ a + self.l2 * np.eye(m + 1)
            weights = np.linalg.solve(gram, a.T @ sels)
            self._models[t] = (boxes, weights, columns)
        if not self._models:
            raise ValueError(
                "QuickSel needs single-table training queries with predicates"
            )

    def _table_selectivity(self, query: Query, table: str) -> float:
        if not query.predicates_on(table):
            return 1.0
        model = self._models.get(table)
        if model is None:
            return 1.0  # no training data for this table: assume no filter
        boxes, weights, columns = model
        qbox = self._query_box(query, table, columns)
        mass = sum(
            w * self._overlap(qbox, boxes[j]) for j, w in enumerate(weights[:-1])
        )
        mass += weights[-1] * self._overlap(
            qbox, np.column_stack([np.zeros(qbox.shape[0]), np.ones(qbox.shape[0])])
        )
        return float(np.clip(mass, 0.0, 1.0))

    def _estimate(self, query: Query) -> float:
        return uniform_join_estimate(
            query, self._join_sizes, lambda t: self._table_selectivity(query, t)
        )


class MSCNEstimator(BaseCardinalityEstimator):
    """Multi-set convolutional network (Kipf et al. [23])."""

    name = "mscn"

    def __init__(self, db: Database, epochs: int = 80, seed: int = 0) -> None:
        super().__init__(db)
        self.featurizer = MSCNFeaturizer(db, seed=seed)
        self.net = SetConvNet(self.featurizer.module_dims(), seed=seed)
        self.epochs = epochs
        self.lr = 1e-3
        self.seed = seed
        self._max_log = 1.0
        self._fitted = False

    def _targets(self, cards: np.ndarray) -> np.ndarray:
        logs = _log_card(cards)
        self._max_log = float(max(logs.max(), 1.0))
        return logs / self._max_log

    def _featurize_training(self, queries: list[Query]) -> list[dict]:
        return [self.featurizer.featurize(q) for q in queries]

    def _fit(self, queries: list[Query], cards: np.ndarray) -> None:
        samples = self._featurize_training(queries)
        y = self._targets(np.asarray(cards))
        self.net.fit(samples, y, epochs=self.epochs, lr=self.lr, seed=self.seed)
        self._fitted = True

    def _estimate(self, query: Query) -> float:
        if not self._fitted:
            raise RuntimeError("MSCN.estimate called before fit")
        pred = self.net.predict([self.featurizer.featurize(query)])[0]
        return float(np.expm1(pred * self._max_log))

    def _estimate_batch(self, queries: list[Query]) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError("MSCN.estimate_batch called before fit")
        batch = self.featurizer.featurize_workload(queries)
        preds = self.net.predict_padded(batch)
        return np.expm1(preds * self._max_log)


class PooledMSCNEstimator(MSCNEstimator):
    """MSCN with max pooling over set elements (Kim et al. [22]).

    [22]'s in-depth study found that replacing average pooling with pooling
    layers that capture only the *strongest* intra-table signals changes
    which correlations the model can express; this variant wires the
    max-pooling option through the set modules.
    """

    name = "pooled_mscn"

    def __init__(self, db: Database, epochs: int = 80, seed: int = 0) -> None:
        BaseCardinalityEstimator.__init__(self, db)
        self.featurizer = MSCNFeaturizer(db, seed=seed)
        self.net = SetConvNet(
            self.featurizer.module_dims(), pooling="max", seed=seed
        )
        self.epochs = epochs
        self.lr = 1e-3
        self.seed = seed
        self._max_log = 1.0
        self._fitted = False


class CRNEstimator(BaseCardinalityEstimator):
    """Containment-rate network (CRN, Hayek & Shmueli [13]).

    CRN learns the *containment rate* between query pairs -- the fraction
    of one query's result tuples that also satisfy another -- and derives
    cardinalities from rates against queries with known cardinalities.

    This implementation keeps that two-step structure: an MLP over
    concatenated flat features of (anchor, query) predicts
    ``|anchor AND query| / |anchor|``; at estimation time the rate against
    a set of known-cardinality *anchor* queries (per table set) converts
    into a cardinality estimate, averaged over anchors.  Training pairs
    and their exact containment labels come from the training workload via
    predicate conjunction.
    """

    name = "crn"
    anchors_per_template = 4
    max_pairs = 1500  # cap on (anchor, query) training pairs

    def __init__(
        self,
        db: Database,
        epochs: int = 80,
        seed: int = 0,
    ) -> None:
        super().__init__(db)
        self.featurizer = FlatQueryFeaturizer(db)
        self.hidden = (64, 64)
        self.epochs = epochs
        self.seed = seed
        self._net: MLP | None = None
        # template key -> list of (anchor query, its true cardinality)
        self._anchors: dict[tuple, list[tuple[Query, float]]] = {}

    @staticmethod
    def _template_key(query: Query) -> tuple:
        return (query.tables, tuple(str(j) for j in query.joins))

    @staticmethod
    def _conjoin(a: Query, b: Query) -> Query:
        """a AND b (same template): union of predicates."""
        return Query(a.tables, a.joins, tuple(set(a.predicates) | set(b.predicates)))

    def _fit(self, queries: list[Query], cards: np.ndarray) -> None:
        """Build anchors and train the containment-rate network.

        Exact conjunction cardinalities (the labels) come from the data,
        computed with the exact executor -- the same label source CRN's
        training uses.
        """
        from repro.engine.executor import CardinalityExecutor

        cards = np.asarray(cards, dtype=float)
        executor = CardinalityExecutor(self.db)
        by_template: dict[tuple, list[tuple[Query, float]]] = {}
        for q, c in zip(queries, cards):
            by_template.setdefault(self._template_key(q), []).append((q, float(c)))
        rng = np.random.default_rng(self.seed)
        xs, ys = [], []
        for key, entries in by_template.items():
            # Anchors: the least-selective training queries (largest
            # results make the most informative denominators).
            entries.sort(key=lambda e: -e[1])
            self._anchors[key] = entries[: self.anchors_per_template]
            for anchor, anchor_card in self._anchors[key]:
                if anchor_card <= 0:
                    continue
                for q, _ in entries:
                    if len(xs) >= self.max_pairs:
                        break
                    both = executor.cardinality(self._conjoin(anchor, q))
                    rate = both / anchor_card
                    xs.append(
                        np.concatenate(
                            [self.featurizer.featurize(anchor),
                             self.featurizer.featurize(q)]
                        )
                    )
                    ys.append(rate)
        if not xs:
            raise ValueError("no usable training pairs (all-empty anchors?)")
        x = np.stack(xs)
        y = np.clip(np.array(ys), 0.0, 1.0)
        self._net = MLP(
            x.shape[1], self.hidden, output_activation="sigmoid", seed=self.seed
        )
        self._net.fit(x, y, epochs=self.epochs, lr=2e-3)
        del rng

    def _estimate(self, query: Query) -> float:
        if self._net is None:
            raise RuntimeError("CRN.estimate called before fit")
        anchors = self._anchors.get(self._template_key(query))
        if not anchors:
            # Unseen template: no anchor to contain against.  Fall back to
            # the containment against the unfiltered template, whose
            # cardinality is computable exactly.
            from repro.cardest.joinutil import UnfilteredJoinSizes

            sizes = UnfilteredJoinSizes(self.db)
            unfiltered = Query(query.tables, query.joins, ())
            anchors = [(unfiltered, float(sizes.size(query)))]
            self._anchors[self._template_key(query)] = anchors
        estimates = []
        for anchor, anchor_card in anchors:
            pair = np.concatenate(
                [self.featurizer.featurize(anchor), self.featurizer.featurize(query)]
            )
            rate = float(np.clip(self._net.predict(pair[None, :])[0], 0.0, 1.0))
            estimates.append(rate * anchor_card)
        return float(np.mean(estimates))


class RobustMSCNEstimator(MSCNEstimator):
    """MSCN trained with query masking (Negi et al. [45]).

    Random predicate masking and bitmap dropping during training make the
    model lean on schema features, which [45] shows avoids the
    catastrophic errors vanilla MSCN makes off-distribution.  Inference
    featurizes exactly as MSCN does.
    """

    name = "robust_mscn"
    train_drop_fraction = 0.3  # share of training queries masked
    mask_rate = 0.25  # share of a masked query's predicates dropped

    def __init__(self, db: Database, epochs: int = 80, seed: int = 0) -> None:
        super().__init__(db, epochs=epochs, seed=seed)
        self._mask_rng = np.random.default_rng(seed + 17)

    def _featurize_training(self, queries: list[Query]) -> list[dict]:
        samples = []
        for q in queries:
            drop = self._mask_rng.random() < self.train_drop_fraction
            samples.append(
                self.featurizer.featurize(
                    q,
                    drop_bitmaps=drop,
                    mask_rate=self.mask_rate if drop else 0.0,
                    rng=self._mask_rng,
                )
            )
        return samples

    def estimate_masked(self, query: Query) -> float:
        """Estimate with bitmaps dropped (the drifted-workload path)."""
        if not self._fitted:
            raise RuntimeError("estimate_masked called before fit")
        sample = self.featurizer.featurize(query, drop_bitmaps=True)
        pred = self.net.predict([sample])[0]
        upper = self._upper_bound(query)
        return float(min(max(np.expm1(pred * self._max_log), 0.0), upper))


class GLPlusEstimator(BaseCardinalityEstimator):
    """Segmented deep estimation (GL+ [52] -- lite).

    GL+ "integrates DNNs with segmentation techniques to resolve the data
    hungry problem": instead of one global model starving on a small
    workload, the query space is segmented and a small local model serves
    each segment, with a global model as fallback.  Here segmentation is
    k-means over flat query features; each segment with enough members
    gets its own MLP, others fall through to the global MLP.
    """

    name = "gl_plus"
    n_segments = 4  # k-means clusters over the query features
    min_segment_size = 30  # members a segment needs for its own MLP

    def __init__(
        self,
        db: Database,
        epochs: int = 80,
        seed: int = 0,
    ) -> None:
        super().__init__(db)
        self.featurizer = FlatQueryFeaturizer(db)
        self.hidden = (48,)
        self.epochs = epochs
        self.seed = seed
        self._kmeans = None
        self._global: MLP | None = None
        self._local: dict[int, MLP] = {}

    def _fit(self, queries: list[Query], cards: np.ndarray) -> None:
        from repro.ml.cluster import KMeans

        x = self.featurizer.featurize_batch(queries)
        y = _log_card(np.asarray(cards))
        self._global = MLP(x.shape[1], self.hidden, seed=self.seed)
        self._global.fit(x, y, epochs=self.epochs, lr=2e-3)
        k = min(self.n_segments, x.shape[0])
        self._kmeans = KMeans(n_clusters=k, seed=self.seed).fit(x)
        labels = self._kmeans.labels_
        self._local = {}
        for seg in range(k):
            members = labels == seg
            if members.sum() >= self.min_segment_size:
                local = MLP(x.shape[1], self.hidden, seed=self.seed + seg + 1)
                local.fit(x[members], y[members], epochs=self.epochs, lr=2e-3)
                self._local[seg] = local

    def _estimate(self, query: Query) -> float:
        if self._global is None or self._kmeans is None:
            raise RuntimeError("GL+.estimate called before fit")
        x = self.featurizer.featurize(query)[None, :]
        seg = int(self._kmeans.predict(x)[0])
        model = self._local.get(seg, self._global)
        return float(np.expm1(np.atleast_1d(model.predict(x))[0]))

    def _estimate_batch(self, queries: list[Query]) -> np.ndarray:
        if self._global is None or self._kmeans is None:
            raise RuntimeError("GL+.estimate_batch called before fit")
        x = self.featurizer.featurize_batch(queries)
        segs = self._kmeans.predict(x)
        out = np.empty(len(queries))
        for seg in np.unique(segs):
            members = segs == seg
            model = self._local.get(int(seg), self._global)
            out[members] = np.atleast_1d(model.predict(x[members]))
        return np.expm1(out)


class LPCEEstimator(BaseCardinalityEstimator):
    """Progressive cardinality estimation (LPCE [59]).

    An *initial* model (MLP on flat features) answers before execution; a
    *refinement* stage consumes the true cardinalities of executed
    (sub-)queries via :meth:`observe`: exact matches are answered from the
    feedback cache, and a residual-correction GBDT retrains every 50
    observations on the accumulated feedback to shift the initial model's
    bias.
    """

    name = "lpce"

    def __init__(self, db: Database, seed: int = 0) -> None:
        super().__init__(db)
        self._initial = MLPQueryEstimator(db, seed=seed)
        self._cache: dict[str, float] = {}
        self._feedback: list[tuple[Query, float]] = []
        self._correction: GradientBoostedTrees | None = None
        self.seed = seed

    def _fit(self, queries: list[Query], cards: np.ndarray) -> None:
        self._initial.fit(queries, cards)

    def observe(self, query: Query, true_card: float) -> None:
        """Feed back the true cardinality of an executed (sub-)query."""
        self._cache[query.cache_key] = float(true_card)
        self._feedback.append((query, float(true_card)))
        if len(self._feedback) % 50 == 0:
            self._refit_correction()
        self._bump_estimates_version()

    def _refit_correction(self) -> None:
        if len(self._feedback) < 10:
            return
        queries = [q for q, _ in self._feedback]
        x = self._initial.featurizer.featurize_batch(queries)
        initial_log = self._initial._predict_log(x)
        true_log = _log_card(np.array([c for _, c in self._feedback]))
        residual = true_log - initial_log
        self._correction = GradientBoostedTrees(
            n_estimators=40, max_depth=4, seed=self.seed
        ).fit(x, residual)

    def _estimate(self, query: Query) -> float:
        hit = self._cache.get(query.cache_key)
        if hit is not None:
            return hit
        x = self._initial.featurizer.featurize(query)[None, :]
        log_est = self._initial._predict_log(x)
        if self._correction is not None:
            log_est = log_est + self._correction.predict(x)
        return float(np.expm1(log_est[0]))

    def _estimate_batch(self, queries: list[Query]) -> np.ndarray:
        out = np.empty(len(queries))
        miss_idx: list[int] = []
        misses: list[Query] = []
        for i, q in enumerate(queries):
            hit = self._cache.get(q.cache_key)
            if hit is not None:
                out[i] = hit
            else:
                miss_idx.append(i)
                misses.append(q)
        if misses:
            x = self._initial.featurizer.featurize_batch(misses)
            log_est = self._initial._predict_log(x)
            if self._correction is not None:
                log_est = log_est + self._correction.predict(x)
            out[miss_idx] = np.expm1(log_est)
        return out
