"""K-means clustering (k-means++ init), used by Eraser's plan clustering."""

from __future__ import annotations

import numpy as np

__all__ = ["KMeans"]


class KMeans:
    """Lloyd's algorithm with k-means++ seeding.

    Deterministic for a fixed seed.  Empty clusters are re-seeded from the
    point farthest from its assigned centroid.
    """

    max_iter = 100

    def __init__(self, n_clusters: int, seed: int = 0) -> None:
        if n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        self.n_clusters = n_clusters
        self.seed = seed
        self.centroids_: np.ndarray | None = None
        self.labels_: np.ndarray | None = None
        self.inertia_: float = 0.0

    def _init_centroids(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        n = x.shape[0]
        centroids = np.empty((self.n_clusters, x.shape[1]))
        centroids[0] = x[rng.integers(n)]
        closest = ((x - centroids[0]) ** 2).sum(axis=1)
        for k in range(1, self.n_clusters):
            total = closest.sum()
            if total <= 0:
                centroids[k] = x[rng.integers(n)]
                continue
            probs = closest / total
            centroids[k] = x[rng.choice(n, p=probs)]
            dist = ((x - centroids[k]) ** 2).sum(axis=1)
            closest = np.minimum(closest, dist)
        return centroids

    def fit(self, x: np.ndarray) -> "KMeans":
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[0] == 0:
            raise ValueError("x must be a non-empty 2-D array")
        k = min(self.n_clusters, x.shape[0])
        rng = np.random.default_rng(self.seed)
        centroids = self._init_centroids(x, rng)[:k]
        labels = np.zeros(x.shape[0], dtype=int)
        for _ in range(self.max_iter):
            dists = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
            new_labels = dists.argmin(axis=1)
            for j in range(k):
                members = x[new_labels == j]
                if members.shape[0] == 0:
                    worst = dists[np.arange(x.shape[0]), new_labels].argmax()
                    centroids[j] = x[worst]
                    new_labels[worst] = j
                else:
                    centroids[j] = members.mean(axis=0)
            if (new_labels == labels).all():
                labels = new_labels
                break
            labels = new_labels
        self.centroids_ = centroids
        self.labels_ = labels
        dists = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        self.inertia_ = float(dists[np.arange(x.shape[0]), labels].sum())
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.centroids_ is None:
            raise RuntimeError("KMeans.predict called before fit")
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        dists = ((x[:, None, :] - self.centroids_[None, :, :]) ** 2).sum(axis=2)
        return dists.argmin(axis=1)
