"""The eager bootstrap refit, kept as the reference.

These are ``TreeConvLatencyModel`` and ``EnsembleLatencyModel``
(``repro/e2e/risk_models.py``) as they stood before a retrain became one
owed fit per member: ``retrain`` fits every member in place, in member
order, and every read uses the weights as they are.  The lazy models must
make the same decisions, leave ``_rng`` in the same state after every
decision and end with bit-equal weights; ``tests/test_risk_model_refits.py``
asserts that.  Do not optimise this file.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

import numpy as np

from repro.core.framework import OBSERVATION_WINDOW, CandidatePlan
from repro.costmodel.features import PlanFeaturizer, plan_to_tree_arrays
from repro.ml.treeconv import PlanTreeCorpus, TreeConvNet

__all__ = ["EagerTreeConvLatencyModel", "EagerEnsembleLatencyModel"]


def _default_scores(candidates: Sequence[CandidatePlan]) -> list[float]:
    return [0.0 if c.source == "default" else 1.0 for c in candidates]


class EagerTreeConvLatencyModel:
    """Pointwise tree-conv latency model; a retrain fits every member."""

    min_observations = 20

    def __init__(
        self,
        featurizer: PlanFeaturizer,
        n_members: int = 3,
        *,
        thompson: bool = True,
        epochs: int = 30,
        lr: float = 1e-3,
        seed: int = 0,
    ) -> None:
        self.featurizer = featurizer
        self.thompson = thompson
        self.epochs = epochs
        self.lr = lr
        self._members = [
            TreeConvNet(
                featurizer.node_dim,
                conv_channels=(32, 32),
                head_hidden=(16,),
                seed=seed + i,
            )
            for i in range(max(n_members, 1))
        ]
        self._rng = np.random.default_rng(seed + 100)
        self._trees: deque[tuple] = deque(maxlen=OBSERVATION_WINDOW)
        self._latencies: deque[float] = deque(maxlen=OBSERVATION_WINDOW)
        self._trained = False

    @property
    def n_observations(self) -> int:
        return len(self._latencies)

    def members(self) -> list[TreeConvNet]:
        """Every member; an eager retrain leaves nothing owed."""
        return self._members

    def observe(self, candidate: CandidatePlan, latency_ms: float) -> None:
        self._trees.append(plan_to_tree_arrays(candidate.plan, self.featurizer))
        self._latencies.append(float(latency_ms))

    def retrain(self) -> None:
        n = len(self._latencies)
        if n < self.min_observations:
            return
        y = np.log1p(np.maximum(np.array(self._latencies), 0.0))
        corpus = PlanTreeCorpus.from_trees(self._trees)
        for i, member in enumerate(self._members):
            # Bootstrap resample per member (Bao's approximate posterior).
            idx = self._rng.integers(0, n, size=n)
            member.fit(
                corpus.resample(idx), y[idx], epochs=self.epochs, lr=self.lr, seed=i
            )
        self._trained = True

    def predict(self, candidates: Sequence[CandidatePlan]) -> np.ndarray:
        trees = [plan_to_tree_arrays(c.plan, self.featurizer) for c in candidates]
        preds = np.stack([m.predict(trees) for m in self._members])
        return np.maximum(np.expm1(preds.mean(axis=0)), 0.0)

    def scores(self, candidates: Sequence[CandidatePlan]) -> list[float]:
        if not self._trained:
            return _default_scores(candidates)
        trees = [plan_to_tree_arrays(c.plan, self.featurizer) for c in candidates]
        if self.thompson:
            member = self._members[self._rng.integers(len(self._members))]
            return list(member.predict(trees))
        preds = np.stack([m.predict(trees) for m in self._members])
        return list(preds.mean(axis=0))


class EagerEnsembleLatencyModel:
    """HyperQO's variance-filtered ensemble over the eager model."""

    variance_quantile = 0.7

    def __init__(
        self,
        featurizer: PlanFeaturizer,
        *,
        epochs: int = 30,
        seed: int = 0,
    ) -> None:
        self.inner = EagerTreeConvLatencyModel(
            featurizer, 4, thompson=False, epochs=epochs, seed=seed
        )

    def observe(self, candidate: CandidatePlan, latency_ms: float) -> None:
        self.inner.observe(candidate, latency_ms)

    def retrain(self) -> None:
        self.inner.retrain()

    def scores(self, candidates: Sequence[CandidatePlan]) -> list[float]:
        if not self.inner._trained:
            return _default_scores(candidates)
        trees = [
            plan_to_tree_arrays(c.plan, self.inner.featurizer) for c in candidates
        ]
        preds = np.stack([m.predict(trees) for m in self.inner._members])
        means = preds.mean(axis=0)
        stds = preds.std(axis=0)
        cutoff = float(np.quantile(stds, self.variance_quantile))
        big = float(means.max()) + 1.0
        out = []
        for i, c in enumerate(candidates):
            if stds[i] > cutoff and c.source != "default":
                out.append(big + float(stds[i]))
            else:
                out.append(float(means[i]))
        return out
