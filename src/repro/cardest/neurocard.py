"""NeuroCard-style estimator [70]: one autoregressive model per join
template, trained on exact uniform samples of the (unfiltered) join.

NeuroCard's idea is to learn a single deep autoregressive model over the
*join* of the schema rather than per-table models, removing the
join-uniformity assumption entirely.  This implementation realizes it as:

- :class:`FullJoinSampler` -- draws **exactly uniform** samples from the
  unfiltered join result of a template using two-pass message passing
  (bottom-up join counts per row, top-down weighted ancestor sampling);
  cycle-closing join edges are honoured by rejection;
- per distinct join template (table set + join edges), a MADE is trained
  over the concatenated non-key columns of the joined sample;
- a query's cardinality is ``P(box | join) * |join|`` with the box
  probability from Naru-style progressive sampling and ``|join|`` exact
  from the executor.

Templates are built lazily and cached, mirroring how NeuroCard trains one
model per (schema) join template.
"""

from __future__ import annotations

import numpy as np

from repro.cardest.base import BaseCardinalityEstimator
from repro.cardest.binning import ColumnBinner
from repro.cardest.joinutil import spanning_tree
from repro.engine.executor import CardinalityExecutor
from repro.ml.autoregressive import MaskedAutoregressiveNetwork
from repro.sql.query import Query
from repro.storage.catalog import Database

__all__ = ["FullJoinSampler", "NeuroCardEstimator"]


class FullJoinSampler:
    """Uniform sampling from an unfiltered join result.

    Works on a spanning tree of the template's join graph; extra
    (cycle-closing) edges are enforced by rejection, which preserves
    uniformity over the cyclic join result.
    """

    def __init__(self, db: Database, template: Query) -> None:
        self.db = db
        self.template = Query(template.tables, template.joins, ())
        self._tree, self._extras = spanning_tree(self.template)
        if len(self._tree) + len(self._extras) < len(self.template.joins):
            raise ValueError(f"join graph of {self.template} is disconnected")
        self._prepare()

    def _prepare(self) -> None:
        """Bottom-up pass: per-row weights = number of join rows through it."""
        db = self.db
        self._weights: dict[str, np.ndarray] = {
            t: np.ones(db.table(t).n_rows) for t in self.template.tables
        }
        # Child groupings per tree edge for top-down sampling.
        self._edge_groups: dict[tuple[str, str], dict] = {}
        for child, ccol, parent, pcol in reversed(self._tree):
            keys = db.table(child).values(ccol)
            order = np.argsort(keys, kind="stable")
            sorted_keys = keys[order]
            uniq, start = np.unique(sorted_keys, return_index=True)
            lengths = np.diff(np.append(start, sorted_keys.shape[0]))
            self._edge_groups[(child, parent)] = {
                "uniq": uniq,
                "start": start,
                "lengths": lengths,
                "perm": order,
                "ccol": ccol,
                "pcol": pcol,
            }
            # Sum of child weights per key -> multiply into parent weights.
            sums = np.zeros(uniq.shape[0])
            np.add.at(sums, np.searchsorted(uniq, sorted_keys), self._weights[child][order])
            pkeys = db.table(parent).values(pcol)
            pos = np.searchsorted(uniq, pkeys)
            pos = np.clip(pos, 0, max(uniq.shape[0] - 1, 0))
            hit = uniq[pos] == pkeys if uniq.size else np.zeros(pkeys.shape[0], bool)
            self._weights[parent] *= np.where(hit, sums[pos], 0.0)
        self._root = self._tree[0][2] if self._tree else self.template.tables[0]
        self.join_size = float(self._weights[self._root].sum())

    def sample(self, n: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
        """``n`` uniform join rows as per-table row-index arrays.

        Raises ValueError when the join is empty.  With cycle-closing edges
        the effective sample may be smaller than requested if acceptance is
        very low; at least one accepted row is guaranteed or an error raised.
        """
        if self.join_size <= 0:
            raise ValueError(f"unfiltered join of {self.template} is empty")
        out: dict[str, list[int]] = {t: [] for t in self.template.tables}
        root_w = self._weights[self._root]
        probs = root_w / root_w.sum()
        attempts = 0
        accepted = 0
        max_attempts = max(20 * n, 200)
        # Children of each parent in top-down order.
        children: dict[str, list[str]] = {t: [] for t in self.template.tables}
        for child, _, parent, _ in self._tree:
            children[parent].append(child)

        while accepted < n and attempts < max_attempts:
            attempts += 1
            row: dict[str, int] = {self._root: int(rng.choice(root_w.shape[0], p=probs))}
            ok = True
            frontier = [self._root]
            while frontier and ok:
                parent = frontier.pop()
                for child in children[parent]:
                    group = self._edge_groups[(child, parent)]
                    pkey = self.db.table(parent).values(group["pcol"])[row[parent]]
                    pos = int(np.searchsorted(group["uniq"], pkey))
                    if pos >= group["uniq"].shape[0] or group["uniq"][pos] != pkey:
                        ok = False
                        break
                    start, length = group["start"][pos], group["lengths"][pos]
                    members = group["perm"][start : start + length]
                    w = self._weights[child][members]
                    total = w.sum()
                    if total <= 0:
                        ok = False
                        break
                    row[child] = int(rng.choice(members, p=w / total))
                    frontier.append(child)
            if not ok:
                continue
            # Cycle-closing edges: rejection.
            valid = True
            for j in self._extras:
                lv = self.db.table(j.left.table).values(j.left.column)[row[j.left.table]]
                rv = self.db.table(j.right.table).values(j.right.column)[row[j.right.table]]
                if lv != rv:
                    valid = False
                    break
            if not valid:
                continue
            for t, i in row.items():
                out[t].append(i)
            accepted += 1
        if accepted == 0:
            raise ValueError(
                f"could not draw any sample from cyclic join {self.template}"
            )
        return {t: np.array(idx, dtype=np.int64) for t, idx in out.items()}


class _TemplateModel:
    """MADE over a joined sample of one template."""

    def __init__(
        self,
        db: Database,
        template: Query,
        n_samples: int,
        max_bins: int,
        hidden: tuple[int, ...],
        epochs: int,
        seed: int,
        executor: CardinalityExecutor,
    ) -> None:
        rng = np.random.default_rng(seed)
        sampler = FullJoinSampler(db, template)
        try:
            rows = sampler.sample(n_samples, rng)
        except ValueError:
            rows = None
        if rows is None or rows[template.tables[0]].shape[0] < max(n_samples // 10, 20):
            # Cyclic template with a tiny acceptance rate: fall back to the
            # spanning-tree join for the *sample* (the scale factor below
            # still uses the exact cyclic join size).  This assumes the
            # predicate-column distribution over the cyclic join resembles
            # that over its spanning tree -- NeuroCard-lite's documented
            # approximation for cyclic schemas.
            tree_joins = tuple(
                j for j in template.joins if j not in sampler._extras
            )
            tree_template = Query(template.tables, tree_joins, ())
            sampler = FullJoinSampler(db, tree_template)
            rows = sampler.sample(n_samples, rng)
        # Columns: all non-key columns of every table in the template.
        self.columns: list[tuple[str, str]] = []
        data_cols: list[np.ndarray] = []
        for t in template.tables:
            tbl = db.table(t)
            for c in tbl.column_names:
                if tbl.column(c).is_key:
                    continue
                self.columns.append((t, c))
                data_cols.append(tbl.values(c)[rows[t]])
        if not self.columns:
            raise ValueError(f"template {template} has no non-key columns")
        self.binners = [
            ColumnBinner(db.table(t).values(c), max_bins=max_bins)
            for t, c in self.columns
        ]
        codes = np.column_stack(
            [b.bin_of(v) for b, v in zip(self.binners, data_cols)]
        )
        self.net = MaskedAutoregressiveNetwork(
            [b.n_bins for b in self.binners], hidden=hidden, seed=seed
        )
        self.net.fit(codes, epochs=epochs)
        self.join_size = float(executor.cardinality(Query(template.tables, template.joins, ())))
        self._rng = np.random.default_rng(seed + 1)

    def estimate(self, query: Query, n_samples: int) -> float:
        allowed: list[np.ndarray | None] = [None] * len(self.columns)
        correction = 1.0
        for pred in query.predicates:
            key = (pred.column.table, pred.column.column)
            if key not in self.columns:
                continue
            i = self.columns.index(key)
            bins, factor = self.binners[i].bins_for_predicate(pred)
            correction *= factor
            if allowed[i] is None:
                allowed[i] = bins
            else:
                allowed[i] = np.intersect1d(allowed[i], bins)
        # Checked before the walk rather than left to it: an empty box must
        # not draw from the generator (Naru's per-table walk does).
        for bins in allowed:
            if bins is not None and bins.size == 0:
                return 0.0
        box = self.net.box_probability(allowed, n_samples, self._rng)
        return box * correction * self.join_size


class NeuroCardEstimator(BaseCardinalityEstimator):
    """One autoregressive model per join template (NeuroCard [70])."""

    name = "neurocard"
    inference_samples = 128  # progressive-sampling paths per estimate
    max_bins = 24

    def __init__(
        self,
        db: Database,
        n_samples: int = 1500,
        epochs: int = 10,
        seed: int = 0,
    ) -> None:
        super().__init__(db)
        self.n_samples = n_samples
        self.hidden = (64,)
        self.epochs = epochs
        self.seed = seed
        self._executor = CardinalityExecutor(db)
        self._templates: dict[tuple, _TemplateModel] = {}

    def _template_key(self, query: Query) -> tuple:
        return (query.tables, tuple(str(j) for j in query.joins))

    def _model_for(self, query: Query) -> _TemplateModel:
        key = self._template_key(query)
        model = self._templates.get(key)
        if model is None:
            model = _TemplateModel(
                self.db,
                query,
                self.n_samples,
                self.max_bins,
                self.hidden,
                self.epochs,
                self.seed,
                self._executor,
            )
            self._templates[key] = model
        return model

    def _fit(self, queries: list[Query], cards: np.ndarray) -> None:
        """Train models for every distinct template in a workload upfront
        (the labels go unused: the models learn from join samples)."""
        for q in queries:
            self._model_for(q)

    def _refresh(self) -> None:
        """Drop cached templates (after data change); they rebuild lazily."""
        self._templates.clear()
        self._executor.clear_cache()

    def _estimate(self, query: Query) -> float:
        return self._model_for(query).estimate(query, self.inference_samples)
