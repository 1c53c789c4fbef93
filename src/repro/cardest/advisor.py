"""Extensions of §2.1.1: model advisor, uncertainty, Flow-Loss weighting.

- :class:`AutoCE` [74]: a model advisor recommending the best estimator
  family for a dataset via metric learning over dataset features
  (implemented as nearest-neighbour in a learned-scale feature space over
  recorded performance profiles).
- :class:`EnsembleEstimator` (Fauce [33] / prediction intervals [55]):
  an ensemble of independently seeded estimators giving both a point
  estimate (geometric mean) and an uncertainty interval.
- :func:`flow_loss_weights` [44]: training-sample weights emphasizing
  queries whose estimates actually change plan cost, approximated by the
  cost-model sensitivity to scaling each query's cardinality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.cardest.base import BaseCardinalityEstimator
from repro.sql.query import Query
from repro.storage.catalog import Database

__all__ = ["DatasetFeatures", "AutoCE", "EnsembleEstimator", "flow_loss_weights"]


@dataclass(frozen=True)
class DatasetFeatures:
    """Fixed-length summary of a database used by the advisor."""

    log_rows: float
    mean_correlation: float
    mean_skew: float
    mean_log_domain: float
    n_tables: float
    fanout_skew: float

    def vector(self) -> np.ndarray:
        return np.array(
            [
                self.log_rows,
                self.mean_correlation,
                self.mean_skew,
                self.mean_log_domain,
                self.n_tables,
                self.fanout_skew,
            ]
        )

    @classmethod
    def of(cls, db: Database) -> "DatasetFeatures":
        corrs, skews, domains = [], [], []
        for table in db.tables.values():
            cols = [c for c in table.column_names if not table.column(c).is_key]
            mats = [table.values(c).astype(float) for c in cols]
            for i in range(len(mats)):
                domains.append(math.log1p(np.unique(mats[i]).size))
                # Normalized entropy as an (inverse) skew proxy.
                _, counts = np.unique(mats[i], return_counts=True)
                p = counts / counts.sum()
                ent = -(p * np.log(p)).sum()
                max_ent = math.log(max(len(counts), 2))
                skews.append(1.0 - ent / max_ent)
                for j in range(i + 1, len(mats)):
                    if mats[i].std() > 1e-9 and mats[j].std() > 1e-9:
                        corrs.append(abs(float(np.corrcoef(mats[i], mats[j])[0, 1])))
        fanouts = []
        for e in db.joins:
            counts = np.unique(
                db.table(e.left_table).values(e.left_column), return_counts=True
            )[1]
            fanouts.append(float(counts.max() / max(counts.mean(), 1e-9)))
        return cls(
            log_rows=math.log1p(db.total_rows()),
            mean_correlation=float(np.mean(corrs)) if corrs else 0.0,
            mean_skew=float(np.mean(skews)) if skews else 0.0,
            mean_log_domain=float(np.mean(domains)) if domains else 0.0,
            n_tables=float(len(db.tables)),
            fanout_skew=float(np.mean(fanouts)) if fanouts else 1.0,
        )


class AutoCE:
    """Model advisor: recommend an estimator family for a dataset [74].

    Profiles are ``(features, best_method)`` pairs recorded from past
    benchmark runs (see :meth:`record`); :meth:`recommend` returns the
    method of the nearest profile under per-dimension standardized
    distance (the "learned metric" reduced to its diagonal form).
    """

    def __init__(self) -> None:
        self._features: list[np.ndarray] = []
        self._labels: list[str] = []

    def record(self, db: Database, best_method: str) -> None:
        self._features.append(DatasetFeatures.of(db).vector())
        self._labels.append(best_method)

    def recommend(self, db: Database) -> str:
        if not self._labels:
            raise RuntimeError("AutoCE has no recorded profiles")
        x = np.stack(self._features)
        scale = x.std(axis=0)
        scale[scale < 1e-9] = 1.0
        target = DatasetFeatures.of(db).vector()
        dists = (((x - target) / scale) ** 2).sum(axis=1)
        return self._labels[int(np.argsort(dists)[0])]


class EnsembleEstimator(BaseCardinalityEstimator):
    """Ensemble with uncertainty (Fauce [33] / prediction intervals [55]).

    Wraps ``k`` member estimators (typically the same architecture with
    different seeds, already fitted).  The point estimate is the geometric
    mean; :meth:`predict_interval` returns a lognormal-style interval from
    the spread of member log-estimates.
    """

    name = "ensemble"

    def __init__(self, db: Database, members: list) -> None:
        super().__init__(db)
        if not members:
            raise ValueError("ensemble needs at least one member")
        self.members = list(members)

    def _member_logs(self, query: Query) -> np.ndarray:
        return np.array(
            [math.log1p(max(m.estimate(query), 0.0)) for m in self.members]
        )

    def _estimate(self, query: Query) -> float:
        return float(np.expm1(self._member_logs(query).mean()))

    def uncertainty(self, query: Query) -> float:
        """Std-dev of member log-estimates (0 = full agreement)."""
        return float(self._member_logs(query).std())

    def predict_interval(self, query: Query) -> tuple[float, float]:
        """The 95% interval: 1.96 member standard deviations either side
        of the mean log."""
        logs = self._member_logs(query)
        mu, sigma = logs.mean(), logs.std()
        return (
            float(max(np.expm1(mu - 1.96 * sigma), 0.0)),
            float(np.expm1(mu + 1.96 * sigma)),
        )


def flow_loss_weights(
    queries: list[Query],
    optimizer,
    scale: float = math.e,
) -> np.ndarray:
    """Flow-Loss-style training weights [44].

    For each query, measures how sensitive the optimizer's chosen-plan cost
    is to that query's cardinality estimate: the native plan is costed under
    the current estimator and under the estimator with the query's
    cardinalities scaled by ``scale``; the (normalized) absolute log cost
    difference is the weight.  Queries whose estimates cannot change any
    plan decision get weight ~0 -- the "estimates that matter" idea.
    """
    from repro.core.interfaces import ScaledCardinalities  # local: avoid cycle

    weights = np.zeros(len(queries))
    scaled_opt = optimizer.with_estimator(
        ScaledCardinalities(optimizer.estimator, scale)
    )
    for i, q in enumerate(queries):
        base_plan = optimizer.plan(q)
        scaled_plan = scaled_opt.plan(q)
        base_cost = max(optimizer.cost(base_plan), 1e-9)
        # Cost the *changed* decision under the original estimator: if the
        # decision did not change, the weight is zero.
        if scaled_plan.signature() == base_plan.signature():
            weights[i] = 0.0
        else:
            alt_cost = max(optimizer.cost(scaled_plan), 1e-9)
            weights[i] = abs(math.log(alt_cost) - math.log(base_cost))
    total = weights.sum()
    if total <= 0:
        return np.ones(len(queries)) / max(len(queries), 1)
    # Smooth: mix with uniform so zero-sensitivity queries keep some mass.
    mixed = 0.8 * weights / total + 0.2 / max(len(queries), 1)
    return mixed / mixed.sum()
