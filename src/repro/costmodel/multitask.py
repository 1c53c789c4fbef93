"""MLMTF-style unified transferable model [66].

"A pre-trained model to represent shared knowledge across data and tasks,
fine-tuned for a specific data[base]; upon it several small models are
learned together using multi-task learning for each task: cardinality
estimation, cost model and join order search."

:class:`UnifiedTransferableModel` realizes that recipe at this repo's
scale: one shared tree-convolution trunk over plan trees is pre-trained
with a *joint* loss on two tasks (log-latency and log-cardinality of every
plan node subtree's root); per-task linear heads sit on the shared plan
embedding.  :meth:`fine_tune` freezes the trunk and refits only a task
head from a handful of examples -- the transfer step that makes the model
cheap to specialize to a new workload.

The same object therefore serves as a cost model (``predict_latency``)
and a join-order value function (``value``: predicted latency, usable by
the value-guided searchers); the cardinality head shapes the shared trunk.
"""

from __future__ import annotations

import numpy as np

from repro.costmodel.features import PlanFeaturizer, plan_to_tree_arrays
from repro.engine.plans import Plan
from repro.ml.nn import Adam
from repro.ml.treeconv import PlanTreeBatch, PlanTreeCorpus, TreeConvNet, shuffles

__all__ = ["UnifiedTransferableModel"]

_TASKS = ("latency", "cardinality")
#: plans per Adam step of :meth:`UnifiedTransferableModel.pretrain`
_BATCH_SIZE = 32


class UnifiedTransferableModel:
    """Shared tree-conv trunk + per-task heads, jointly pre-trained."""

    name = "mlmtf"

    def __init__(self, featurizer: PlanFeaturizer, *, seed: int = 0) -> None:
        self.featurizer = featurizer
        # out_dim = one output per task; the trunk is shared by design.
        self.net = TreeConvNet(
            featurizer.node_dim,
            conv_channels=(48, 48),
            head_hidden=(24,),
            out_dim=len(_TASKS),
            seed=seed,
        )
        self._trained = False
        self._rng = np.random.default_rng(seed)

    # -- pre-training ----------------------------------------------------------------

    def pretrain(
        self,
        plans: list[Plan],
        latencies_ms: np.ndarray,
        cardinalities: np.ndarray,
    ) -> list[float]:
        """Joint multi-task training on (plan, latency, cardinality), 40
        epochs."""
        if not (len(plans) == len(latencies_ms) == len(cardinalities)):
            raise ValueError("plans/latencies/cardinalities must align")
        if not plans:
            raise ValueError("empty pre-training corpus")
        corpus = PlanTreeCorpus.from_trees(
            [plan_to_tree_arrays(p, self.featurizer) for p in plans]
        )
        y = np.column_stack(
            [
                np.log1p(np.maximum(np.asarray(latencies_ms, float), 0.0)),
                np.log1p(np.maximum(np.asarray(cardinalities, float), 0.0)),
            ]
        ).astype(self.net.flat_params.dtype)
        opt = Adam(lr=1e-3)
        params, grads = [self.net.flat_params], [self.net.flat_grads]
        losses: list[float] = []
        orders = shuffles(self._rng, len(corpus), 40)
        for order, batches in corpus.plan(orders, _BATCH_SIZE):
            y_epoch = y[order]
            total, count = 0.0, 0
            for batch in batches:
                start = count * _BATCH_SIZE
                pred = self.net.forward(batch)
                diff = pred - y_epoch[start : start + _BATCH_SIZE]
                loss = float((diff**2).mean())
                grad = 2.0 * diff / max(diff.size, 1)
                self.net._backward(batch, grad)
                opt.step(params, grads)
                total += loss
                count += 1
            losses.append(total / max(count, 1))
        self._trained = True
        return losses

    # -- fine-tuning -----------------------------------------------------------------

    def fine_tune(
        self,
        task: str,
        plans: list[Plan],
        targets: np.ndarray,
        *,
        epochs: int = 40,
        lr: float = 2e-3,
    ) -> None:
        """Refit only the head (trunk frozen) for one task on new data.

        This is the transfer step: the shared representation stays, the
        small task model adapts.
        """
        if task not in _TASKS:
            raise ValueError(f"unknown task {task!r}; valid: {_TASKS}")
        col = _TASKS.index(task)
        if not self._trained:
            raise RuntimeError("fine_tune called before pretrain")
        if len(plans) != len(targets):
            raise ValueError("plans/targets must align")
        corpus = PlanTreeCorpus.from_trees(
            [plan_to_tree_arrays(p, self.featurizer) for p in plans]
        )
        y = np.log1p(np.maximum(np.asarray(targets, float), 0.0)).astype(
            self.net.flat_params.dtype
        )
        # Head parameters = everything after the conv trunk.
        head = self.net.head_offset
        params, grads = [self.net.flat_params[head:]], [self.net.flat_grads[head:]]
        opt = Adam(lr=lr)
        orders = shuffles(self._rng, len(corpus), epochs)
        for order, batches in corpus.plan(orders, 32):
            y_epoch = y[order]
            for k, batch in enumerate(batches):
                y_b = y_epoch[32 * k : 32 * (k + 1)]
                pred = self.net.forward(batch)
                grad = np.zeros_like(pred)
                grad[:, col] = 2.0 * (pred[:, col] - y_b) / max(y_b.size, 1)
                self.net._backward(batch, grad)
                opt.step(params, grads)

    # -- task predictions ---------------------------------------------------------------

    def _predict(self, plan: Plan) -> np.ndarray:
        if not self._trained:
            raise RuntimeError("predict called before pretrain")
        tree = plan_to_tree_arrays(plan, self.featurizer)
        out = self.net.forward(PlanTreeBatch.from_trees([tree]))
        return out[0]

    def predict_latency(self, plan: Plan) -> float:
        return float(max(np.expm1(self._predict(plan)[0]), 0.0))
