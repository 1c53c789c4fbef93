"""Plan-embedding models (Saturn [34], QueryFormer [76] -- lite).

Saturn compresses query plans into vectors with a traversal-based
autoencoder and shows the compressed vectors distinguish query types for
downstream tasks; QueryFormer learns transformer embeddings of plans
reused across query-optimization tasks.

:class:`PlanAutoencoder` realizes the shared idea at this repo's scale: a
plan is serialized by pre-order traversal into a fixed-length
feature sequence (padded/truncated), an MLP encoder compresses it to a
small latent vector, and a decoder reconstructs the sequence; training
minimizes reconstruction error.  The latent vectors cluster plans by
structural type (join count, operator mix) without any labels, which the
tests verify, and can feed any downstream model.
"""

from __future__ import annotations

import numpy as np

from repro.costmodel.features import PlanFeaturizer, plan_to_tree_arrays
from repro.engine.plans import Plan
from repro.ml.nn import Adam, Dense, ReLU, Sequential

__all__ = ["PlanAutoencoder"]

#: plans per Adam step of :meth:`PlanAutoencoder.fit`
_BATCH_SIZE = 32


class PlanAutoencoder:
    """Traversal-sequence autoencoder over plans (Saturn-lite)."""

    name = "plan_autoencoder"
    max_nodes = 12  # traversal prefix kept per plan
    latent_dim = 8
    hidden = 64  # encoder and decoder width

    def __init__(self, featurizer: PlanFeaturizer, *, seed: int = 0) -> None:
        self.featurizer = featurizer
        self._in_dim = self.max_nodes * featurizer.node_dim
        rng = np.random.default_rng(seed)
        self.encoder = Sequential(
            [
                Dense(self._in_dim, self.hidden, rng=rng),
                ReLU(),
                Dense(self.hidden, self.latent_dim, init="xavier", rng=rng),
            ]
        )
        self.decoder = Sequential(
            [
                Dense(self.latent_dim, self.hidden, rng=rng),
                ReLU(),
                Dense(self.hidden, self._in_dim, init="xavier", rng=rng),
            ]
        )
        self._rng = rng
        self._trained = False

    # -- serialization -------------------------------------------------------------

    def _serialize(self, plan: Plan) -> np.ndarray:
        feats, _, _ = plan_to_tree_arrays(plan, self.featurizer)
        out = np.zeros((self.max_nodes, self.featurizer.node_dim))
        n = min(feats.shape[0], self.max_nodes)
        out[:n] = feats[:n]
        return out.reshape(-1)

    # -- training ----------------------------------------------------------------------

    def fit(
        self,
        plans: list[Plan],
        *,
        epochs: int = 60,
        lr: float = 2e-3,
    ) -> list[float]:
        if not plans:
            raise ValueError("empty training corpus")
        x = np.stack([self._serialize(p) for p in plans])
        params = self.encoder.parameters() + self.decoder.parameters()
        opt = Adam(lr=lr)
        losses: list[float] = []
        n = x.shape[0]
        for _ in range(epochs):
            order = self._rng.permutation(n)
            total, batches = 0.0, 0
            for start in range(0, n, _BATCH_SIZE):
                idx = order[start : start + _BATCH_SIZE]
                z = self.encoder.forward(x[idx])
                recon = self.decoder.forward(z)
                diff = recon - x[idx]
                loss = float((diff**2).mean())
                grad = 2.0 * diff / max(diff.size, 1)
                grad_z = self.decoder.backward(grad)
                self.encoder.backward(grad_z)
                opt.step(params, self.encoder.gradients() + self.decoder.gradients())
                total += loss
                batches += 1
            losses.append(total / max(batches, 1))
        self._trained = True
        return losses

    # -- inference -------------------------------------------------------------------

    def embed(self, plan: Plan) -> np.ndarray:
        if not self._trained:
            raise RuntimeError("embed called before fit")
        x = self._serialize(plan)[None, :]
        return self.encoder.forward(x)[0]

    def reconstruction_error(self, plan: Plan) -> float:
        """MSE of reconstructing the plan -- an OOD score for plans unlike
        anything seen in training (usable as a coarse risk signal)."""
        if not self._trained:
            raise RuntimeError("reconstruction_error called before fit")
        x = self._serialize(plan)[None, :]
        z = self.encoder.forward(x)
        recon = self.decoder.forward(z)
        return float(((recon - x) ** 2).mean())
