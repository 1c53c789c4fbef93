"""Gold-example retrieval: learn which rules pay off for which queries.

ADO-style example retrieval without the FAISS dependency: every promoted
(or demoted) rewrite is stored as an example keyed by the query's
:class:`~repro.cardest.featurize.FlatQueryFeaturizer` vector.  Fitting
:class:`~repro.ml.cluster.KMeans` over the stored vectors partitions the
query-structure space; at selection time a new query is assigned to its
nearest cluster and each rule's weight is the base 1.0 boosted by gold
examples and penalized by anti-patterns *from that cluster only* -- a rule
that regressed on structurally similar queries is down-weighted (and below
the leaderboard's selection cutoff, skipped outright) while still being
tried on dissimilar ones.

Cold start -- no examples, or :meth:`fit` never called -- keeps every
weight at 1.0 so all applicable rules are explored.  Everything is
deterministic: a fixed seed fixes the clustering, examples are stored in
arrival order, and exports sort canonically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cardest.featurize import FlatQueryFeaturizer
from repro.ml.cluster import KMeans
from repro.sql.query import Query, query_hash
from repro.storage.catalog import Database

__all__ = ["RewriteExample", "GoldExampleStore"]


@dataclass(frozen=True)
class RewriteExample:
    """One recorded rewrite outcome: gold (promoted) or anti (demoted)."""

    query_hash: str
    rule: str
    speedup: float
    kind: str  # "gold" | "anti"


class GoldExampleStore:
    """Cluster-indexed store of rewrite outcomes driving rule selection.

    Parameters
    ----------
    db:
        Base database (featurizer dimensions snapshot the schema, so build
        the store before any values relations are attached and featurize
        only original -- pre-rewrite -- queries).
    seed:
        The KMeans seed (of ``n_clusters`` clusters); a fixed seed makes
        retrieval deterministic.
    """

    n_clusters = 4

    #: additive weight delta per same-cluster example of each kind
    gold_boost = 0.25
    anti_penalty = 0.6
    #: floor so a heavily-penalized rule never goes negative
    min_weight = 0.05

    def __init__(self, db: Database, *, seed: int = 0) -> None:
        self.featurizer = FlatQueryFeaturizer(db)
        self.seed = seed
        self._examples: list[RewriteExample] = []
        self._vectors: list[np.ndarray] = []
        self._kmeans: KMeans | None = None
        self._clusters: np.ndarray | None = None

    # -- recording --------------------------------------------------------------

    def _record(self, query: Query, rule: str, speedup: float, kind: str) -> None:
        self._examples.append(
            RewriteExample(query_hash(query), rule, float(speedup), kind)
        )
        self._vectors.append(self.featurizer.featurize(query))
        # Example set changed; cluster assignments are stale until re-fit.
        self._kmeans = None
        self._clusters = None

    def record_gold(self, query: Query, rule: str, speedup: float) -> None:
        """A promoted rewrite: this rule won on this query structure."""
        self._record(query, rule, speedup, "gold")

    def record_anti(self, query: Query, rule: str, speedup: float) -> None:
        """A demoted rewrite: an anti-pattern for this query structure."""
        self._record(query, rule, speedup, "anti")

    def __len__(self) -> int:
        return len(self._examples)

    # -- retrieval --------------------------------------------------------------

    def fit(self) -> bool:
        """(Re)cluster the stored example vectors; False when empty."""
        if not self._vectors:
            return False
        x = np.vstack(self._vectors)
        k = min(self.n_clusters, x.shape[0])
        self._kmeans = KMeans(n_clusters=k, seed=self.seed).fit(x)
        self._clusters = self._kmeans.predict(x)
        return True

    @property
    def fitted(self) -> bool:
        return self._kmeans is not None

    def cluster_of(self, query: Query) -> int:
        """The query's cluster, or -1 before :meth:`fit`."""
        if self._kmeans is None:
            return -1
        vec = self.featurizer.featurize(query)
        return int(self._kmeans.predict(vec)[0])

    def rule_weights(self, query: Query, rules: list[str]) -> dict[str, float]:
        """Per-rule selection weights for this query's cluster.

        1.0 everywhere at cold start; otherwise boosted by gold and
        penalized by anti examples assigned to the query's cluster.
        """
        weights = {name: 1.0 for name in rules}
        if self._kmeans is None or self._clusters is None:
            return weights
        cluster = self.cluster_of(query)
        for example, assigned in zip(self._examples, self._clusters):
            if int(assigned) != cluster or example.rule not in weights:
                continue
            if example.kind == "gold":
                weights[example.rule] += self.gold_boost
            else:
                weights[example.rule] -= self.anti_penalty
        return {
            name: max(self.min_weight, w) for name, w in weights.items()
        }

    # -- introspection ----------------------------------------------------------

    def stats(self) -> dict:
        golds = sum(1 for e in self._examples if e.kind == "gold")
        return {
            "examples": len(self._examples),
            "gold": golds,
            "anti": len(self._examples) - golds,
            "fitted": self.fitted,
            "clusters": (
                int(self._kmeans.n_clusters) if self._kmeans is not None else 0
            ),
        }

    def export(self) -> dict:
        """Deterministic snapshot of every stored example."""
        return {
            "examples": [
                {
                    "query_hash": e.query_hash,
                    "rule": e.rule,
                    "speedup": round(e.speedup, 6),
                    "kind": e.kind,
                }
                for e in sorted(
                    self._examples,
                    key=lambda e: (e.query_hash, e.rule, e.kind, e.speedup),
                )
            ],
            "stats": self.stats(),
        }
