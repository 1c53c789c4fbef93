"""Concurrent-query cost modelling (GPredictor [78] / Prestroid [20]).

Two pieces:

- :class:`ConcurrentWorkload` -- an interference *simulator*: queries
  running in a mix slow each other down proportionally to shared-table
  contention and the co-runners' resource footprints (the phenomenon the
  learned models capture);
- :class:`ConcurrentCostModel` -- a graph-style learned predictor: each
  query's features are its own plan features plus an aggregation of its
  co-runners' features weighted by table overlap (one round of
  message passing over the query-interference graph, GPredictor's core),
  fed to an MLP regressing per-query latency in the mix.
"""

from __future__ import annotations

import numpy as np

from repro.costmodel.features import PlanFeaturizer
from repro.engine.plans import Plan
from repro.engine.simulator import ExecutionSimulator
from repro.ml.nn import MLP

__all__ = ["ConcurrentWorkload", "ConcurrentCostModel"]


def _table_overlap(a: Plan, b: Plan) -> float:
    """Jaccard overlap of the base tables two plans touch."""
    ta, tb = a.root.tables, b.root.tables
    union = len(ta | tb)
    return len(ta & tb) / union if union else 0.0


class ConcurrentWorkload:
    """Deterministic interference model over a mix of plans.

    latency_i = base_i * (1 + alpha * sum_{j != i} overlap(i, j) * load_j)

    where ``load_j`` is co-runner j's base latency normalized by the mix
    mean -- heavier co-runners interfere more, and only via shared tables.
    """

    def __init__(self, simulator: ExecutionSimulator, alpha: float = 0.6) -> None:
        self.simulator = simulator
        self.alpha = alpha

    def run(self, plans: list[Plan]) -> np.ndarray:
        """Per-query latencies (ms) of the whole mix executing together."""
        if not plans:
            return np.zeros(0)
        base = np.array([self.simulator.execute(p).latency_ms for p in plans])
        mean = max(base.mean(), 1e-9)
        load = base / mean
        out = np.empty(len(plans))
        for i, plan in enumerate(plans):
            interference = sum(
                _table_overlap(plan, other) * load[j]
                for j, other in enumerate(plans)
                if j != i
            )
            out[i] = base[i] * (1.0 + self.alpha * interference)
        return out


class ConcurrentCostModel:
    """Interference-aware latency predictor for queries in a mix."""

    name = "concurrent_cost"

    def __init__(
        self,
        featurizer: PlanFeaturizer,
        epochs: int = 80,
        lr: float = 2e-3,
        seed: int = 0,
    ) -> None:
        self.featurizer = featurizer
        self.hidden = (64, 64)
        self.epochs = epochs
        self.lr = lr
        self.seed = seed
        self._net: MLP | None = None

    def _mix_features(self, plans: list[Plan]) -> np.ndarray:
        own = self.featurizer.flat_batch(plans)
        rows = []
        for i, plan in enumerate(plans):
            neighbor = np.zeros(own.shape[1])
            total_w = 0.0
            for j, other in enumerate(plans):
                if j == i:
                    continue
                w = _table_overlap(plan, other)
                neighbor += w * own[j]
                total_w += w
            degree = np.array([total_w, len(plans) / 16.0])
            rows.append(np.concatenate([own[i], neighbor, degree]))
        return np.stack(rows)

    def fit(
        self, mixes: list[list[Plan]], latencies: list[np.ndarray]
    ) -> "ConcurrentCostModel":
        """Train from observed mixes and their per-query latencies."""
        if not mixes:
            raise ValueError("no training mixes")
        xs, ys = [], []
        for plans, lats in zip(mixes, latencies):
            if len(plans) != len(lats):
                raise ValueError("mix/latency length mismatch")
            xs.append(self._mix_features(plans))
            ys.append(np.log1p(np.maximum(np.asarray(lats, dtype=float), 0.0)))
        x = np.concatenate(xs, axis=0)
        y = np.concatenate(ys)
        self._net = MLP(x.shape[1], self.hidden, seed=self.seed)
        self._net.fit(x, y, epochs=self.epochs, lr=self.lr, val_fraction=0.1)
        return self

    def predict_mix(self, plans: list[Plan]) -> np.ndarray:
        """Predicted per-query latencies for a mix."""
        if self._net is None:
            raise RuntimeError("predict_mix called before fit")
        if not plans:
            return np.zeros(0)
        x = self._mix_features(plans)
        return np.maximum(np.expm1(np.atleast_1d(self._net.predict(x))), 0.0)
