"""Zero-shot cost model (Hilprecht & Binnig [16]).

Trains on plans from *source* databases using only transferable,
database-agnostic per-operator features (operator type, input/output
cardinalities, selectivities -- no table identities), then predicts on a
*target* database it has never seen.  The per-plan prediction sums learned
per-operator costs, mirroring the paper's message-passing-over-operators
formulation reduced to its additive core.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import ConfigError
from repro.costmodel.features import PlanFeaturizer
from repro.engine.plans import Plan
from repro.ml.nn import MLP

__all__ = ["ZeroShotCostModel"]


class ZeroShotCostModel:
    """Additive per-operator MLP over transferable features."""

    name = "zeroshot_cost"

    def __init__(self, epochs: int = 80, seed: int = 0) -> None:
        self.hidden = (48, 48)
        self.epochs = epochs
        self.seed = seed
        self._net: MLP | None = None
        self._dim: int | None = None

    def _plan_matrix(self, plan: Plan, featurizer: PlanFeaturizer) -> np.ndarray:
        rows = [featurizer.transferable_node(plan, n) for n in plan.walk()]
        return np.stack(rows)

    @staticmethod
    def _check_dim(mat: np.ndarray, dim: int, featurizer: PlanFeaturizer) -> None:
        if mat.shape[1] != dim:
            raise ConfigError(
                f"transferable-feature dimension mismatch: featurizer "
                f"{type(featurizer).__name__} for database "
                f"{featurizer.db.name!r} produces "
                f"{mat.shape[1]}-dim node features, but this model was "
                f"trained with dim {dim}; zero-shot transfer requires every "
                f"database's featurizer to share one transferable feature space"
            )

    def fit(
        self,
        training_sets: list[tuple[PlanFeaturizer, list[Plan], np.ndarray]],
    ) -> "ZeroShotCostModel":
        """Train from one or more (featurizer, plans, latencies) sources.

        Each source corresponds to one database; pooling several sources is
        what gives the zero-shot property.  The model learns per-node costs
        whose *sum* matches log latency; training uses the standard
        trick of regressing the per-plan mean node target.
        """
        if not training_sets:
            raise ValueError("need at least one training database")
        xs, ys = [], []
        dim: int | None = None
        for featurizer, plans, lats in training_sets:
            if len(plans) != len(lats):
                raise ValueError("plans/latencies length mismatch")
            for plan, lat in zip(plans, lats):
                mat = self._plan_matrix(plan, featurizer)
                if dim is None:
                    dim = mat.shape[1]
                else:
                    self._check_dim(mat, dim, featurizer)
                target = np.log1p(max(float(lat), 0.0)) / mat.shape[0]
                xs.append(mat)
                ys.append(np.full(mat.shape[0], target))
        x = np.concatenate(xs, axis=0)
        y = np.concatenate(ys)
        self._dim = x.shape[1]
        self._net = MLP(self._dim, self.hidden, seed=self.seed)
        self._net.fit(x, y, epochs=self.epochs, lr=2e-3, val_fraction=0.1)
        return self

    def predict_latency(self, plan: Plan, featurizer: PlanFeaturizer) -> float:
        """Latency on a (possibly unseen) database via its featurizer.

        A featurizer whose transferable dimension differs from the one the
        model was trained with raises a :class:`ConfigError` naming both
        dimensions (instead of an opaque shape error inside the MLP) --
        cross-schema misconfiguration must be diagnosable.
        """
        if self._net is None:
            raise RuntimeError("predict_latency called before fit")
        mat = self._plan_matrix(plan, featurizer)
        assert self._dim is not None
        self._check_dim(mat, self._dim, featurizer)
        per_node = np.atleast_1d(self._net.predict(mat))
        return float(max(np.expm1(per_node.sum()), 0.0))
