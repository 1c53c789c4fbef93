"""Eraser [62]: eliminating learned-optimizer regressions in two stages.

Stage 1 (coarse filter): a candidate plan containing structural features
(operator/table-set signatures) never observed is *highly risky* -- the
learned model cannot have learned anything about it -- and is replaced by
the native plan.

Stage 2 (plan clustering): executed candidates are clustered in plan
feature space; each cluster tracks the observed regression ratios of its
members against the native plan.  When a new candidate falls into a
cluster whose tail regression exceeds ``regression_threshold``, the native
plan is kept instead.  The clusters are refit every 30 recorded
decisions.

Deployable on top of any learned optimizer via the
:class:`repro.e2e.loop.OptimizationLoop` ``guard`` hook -- exactly the
plugin positioning the paper describes.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.framework import CandidatePlan
from repro.costmodel.features import PlanFeaturizer
from repro.engine.plans import Plan
from repro.ml.cluster import KMeans
from repro.sql.query import Query

__all__ = ["Eraser"]


def _plan_features(plan: Plan) -> set[str]:
    """Structural feature signatures: per-node operator + table set."""
    scans = {f"{n.method.value}:{n.table}" for n in plan.scan_nodes()}
    joins = {
        f"{n.method.value}:{'+'.join(sorted(n.tables))}" for n in plan.join_nodes()
    }
    return scans | joins


class Eraser:
    """Two-stage regression eliminator; use as an OptimizationLoop guard."""

    min_cluster_history = 3  # observations before a cluster may veto
    n_clusters = 8
    regression_threshold = 1.4  # candidate / native latency a cluster's tail may not exceed

    def __init__(self, featurizer: PlanFeaturizer) -> None:
        self.featurizer = featurizer
        self._seen_features: set[str] = set()
        self._vectors: list[np.ndarray] = []
        self._regressions: list[float] = []  # log(candidate / native)
        self._kmeans: KMeans | None = None
        self._since_recluster = 0
        self.interventions = 0
        self.decisions = 0

    # -- guard interface --------------------------------------------------------------

    def __call__(
        self, query: Query, candidate: CandidatePlan, native_plan: Plan
    ) -> CandidatePlan:
        self.decisions += 1
        if candidate.plan.signature() == native_plan.signature():
            return candidate
        # Stage 1: unseen-feature coarse filter.
        if not _plan_features(candidate.plan) <= self._seen_features:
            self.interventions += 1
            return CandidatePlan(plan=native_plan, source="eraser:coarse")
        # Stage 2: cluster reliability.
        if self._kmeans is not None:
            vec = self.featurizer.flat(candidate.plan)
            cluster = int(self._kmeans.predict(vec[None, :])[0])
            members = [
                r
                for v, r in zip(self._vectors, self._regressions)
                if int(self._kmeans.predict(v[None, :])[0]) == cluster
            ]
            if len(members) >= self.min_cluster_history:
                tail = float(np.percentile(members, 90))
                if tail > math.log(self.regression_threshold):
                    self.interventions += 1
                    return CandidatePlan(plan=native_plan, source="eraser:cluster")
        return candidate

    def record(
        self,
        query: Query,
        candidate: CandidatePlan,
        latency_ms: float,
        native_latency_ms: float,
    ) -> None:
        """Feed back an executed decision (called by the loop)."""
        self._seen_features |= _plan_features(candidate.plan)
        self._vectors.append(self.featurizer.flat(candidate.plan))
        self._regressions.append(
            math.log(max(latency_ms, 1e-9) / max(native_latency_ms, 1e-9))
        )
        self._since_recluster += 1
        if self._since_recluster >= 30 and len(self._vectors) >= 10:
            self._recluster()
            self._since_recluster = 0

    def record_native(
        self, query: Query, native_plan: Plan, native_latency_ms: float
    ) -> None:
        """Nothing: Eraser learns from executed candidates only."""

    def _recluster(self) -> None:
        x = np.stack(self._vectors[-500:])
        k = min(self.n_clusters, x.shape[0])
        self._kmeans = KMeans(n_clusters=k, seed=0).fit(x)

    @property
    def intervention_rate(self) -> float:
        return self.interventions / self.decisions if self.decisions else 0.0
