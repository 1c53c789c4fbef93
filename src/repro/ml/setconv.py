"""Multi-set convolutional network (MSCN, Kipf et al. [23]).

MSCN featurizes a query as three *sets* -- table samples, join conditions and
predicates -- runs a small shared MLP over every element of each set,
average-pools each set into a fixed vector, concatenates the pooled vectors
and maps them through a final MLP to a (sigmoid-squashed) cardinality.

This implementation generalizes the idea to any number of named set modules,
which also lets the Robust-MSCN variant [45] reuse it with query-masking
applied at featurization time.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from repro.ml.nn import Adam, mse_loss

__all__ = ["SetConvNet"]

#: queries per Adam step of :meth:`SetConvNet.fit`
_BATCH_SIZE = 64
#: width of the per-element MLPs, the pooled vectors and the head's hidden layer
_HIDDEN = 64


class _SetModule:
    """Per-element MLP + masked average (or max) pooling for one set kind."""

    def __init__(
        self,
        item_dim: int,
        hidden: int,
        rng: np.random.Generator,
        pooling: str = "avg",
    ) -> None:
        if pooling not in ("avg", "max"):
            raise ValueError(f"unknown pooling {pooling!r}")
        self.pooling = pooling
        self.item_dim = item_dim
        self.hidden = hidden
        s1 = math.sqrt(2.0 / item_dim)
        s2 = math.sqrt(2.0 / hidden)
        self.w1 = rng.normal(0.0, s1, size=(item_dim, hidden))
        self.b1 = np.zeros(hidden)
        self.w2 = rng.normal(0.0, s2, size=(hidden, hidden))
        self.b2 = np.zeros(hidden)
        self.grads = [np.zeros_like(p) for p in (self.w1, self.b1, self.w2, self.b2)]

    def forward(
        self, padded: np.ndarray, mask: np.ndarray, *, train: bool = True
    ) -> np.ndarray:
        # padded: [B, S, item_dim]; mask: [B, S] with 1 for real elements.
        # With train=False the intermediates needed by backward() are not
        # stored and the ReLUs run in place -- same values, less allocation.
        b, s, d = padded.shape
        flat = padded.reshape(b * s, d)
        h1 = flat @ self.w1 + self.b1
        if train:
            self._padded, self._mask = padded, mask
            self._m1 = h1 > 0
            h1 = h1 * self._m1
            self._h1 = h1
        else:
            np.maximum(h1, 0.0, out=h1)
        h2 = h1 @ self.w2 + self.b2
        if train:
            self._m2 = h2 > 0
            h2 = h2 * self._m2
        else:
            np.maximum(h2, 0.0, out=h2)
        h2 = h2.reshape(b, s, self.hidden)
        counts = np.maximum(mask.sum(axis=1, keepdims=True), 1.0)
        if train:
            self._counts = counts
        if self.pooling == "max":
            # Mask out padding with -inf so it never wins the max; an
            # all-empty set pools to zero.
            masked = np.where(mask[:, :, None] > 0, h2, -np.inf)
            argmax = masked.argmax(axis=1)  # [b, hidden]
            pooled = np.take_along_axis(h2, argmax[:, None, :], axis=1)[:, 0, :]
            empty = mask.sum(axis=1) == 0
            pooled[empty] = 0.0
            if train:
                self._argmax = argmax
                self._empty = empty
            return pooled
        return (h2 * mask[:, :, None]).sum(axis=1) / counts

    def backward(self, grad_pool: np.ndarray) -> None:
        b, s, d = self._padded.shape
        if self.pooling == "max":
            g3 = np.zeros((b, s, self.hidden))
            rows = np.arange(b)[:, None]
            cols = np.arange(self.hidden)[None, :]
            grad_eff = np.where(self._empty[:, None], 0.0, grad_pool)
            g3[rows, self._argmax, cols] = grad_eff
            g = g3.reshape(b * s, self.hidden) * self._m2
        else:
            g = (
                grad_pool[:, None, :] / self._counts[:, :, None]
            ) * self._mask[:, :, None]
            g = g.reshape(b * s, self.hidden) * self._m2
        self.grads[2][...] = self._h1.T @ g
        self.grads[3][...] = g.sum(axis=0)
        g = (g @ self.w2.T) * self._m1
        flat = self._padded.reshape(b * s, d)
        self.grads[0][...] = flat.T @ g
        self.grads[1][...] = g.sum(axis=0)

    def parameters(self) -> list[np.ndarray]:
        return [self.w1, self.b1, self.w2, self.b2]


class SetConvNet:
    """MSCN-style model over named multi-sets of feature vectors.

    Parameters
    ----------
    modules:
        Mapping from set name (e.g. ``"tables"``, ``"joins"``, ``"preds"``)
        to the per-element feature dimension of that set.

    The model regresses a scalar in ``[0, 1]`` through a sigmoid; callers
    (cardinality estimators) are responsible for scaling targets into that
    range (typically normalized log-cardinality).
    """

    def __init__(
        self,
        modules: Mapping[str, int],
        *,
        pooling: str = "avg",
        seed: int = 0,
    ) -> None:
        if not modules:
            raise ValueError("SetConvNet needs at least one set module")
        rng = np.random.default_rng(seed)
        self.module_names = list(modules)
        self.modules = {
            name: _SetModule(dim, _HIDDEN, rng, pooling=pooling)
            for name, dim in modules.items()
        }
        in_dim = _HIDDEN * len(self.modules)
        self.w1 = rng.normal(0.0, math.sqrt(2.0 / in_dim), size=(in_dim, _HIDDEN))
        self.b1 = np.zeros(_HIDDEN)
        self.w2 = rng.normal(0.0, math.sqrt(1.0 / _HIDDEN), size=(_HIDDEN, 1))
        self.b2 = np.zeros(1)
        self._head_grads = [
            np.zeros_like(p) for p in (self.w1, self.b1, self.w2, self.b2)
        ]

    # -- batching ---------------------------------------------------------------

    @staticmethod
    def _pad(sets: Sequence[np.ndarray], item_dim: int) -> tuple[np.ndarray, np.ndarray]:
        b = len(sets)
        s_max = max((arr.shape[0] for arr in sets), default=0)
        s_max = max(s_max, 1)
        padded = np.zeros((b, s_max, item_dim))
        mask = np.zeros((b, s_max))
        for i, arr in enumerate(sets):
            arr = np.asarray(arr, dtype=float)
            if arr.size == 0:
                continue
            if arr.ndim != 2 or arr.shape[1] != item_dim:
                raise ValueError(
                    f"set element dim {arr.shape} incompatible with {item_dim}"
                )
            padded[i, : arr.shape[0]] = arr
            mask[i, : arr.shape[0]] = 1.0
        return padded, mask

    # -- forward / backward -------------------------------------------------------

    def forward(self, batch: Mapping[str, Sequence[np.ndarray]]) -> np.ndarray:
        padded_batch = {
            name: self._pad(batch[name], self.modules[name].item_dim)
            for name in self.module_names
        }
        return self.forward_padded(padded_batch)

    def forward_padded(
        self,
        batch: Mapping[str, tuple[np.ndarray, np.ndarray]],
        *,
        train: bool = True,
    ) -> np.ndarray:
        """Forward pass over already-padded sets: ``{name: (padded, mask)}``.

        The fast path for batched inference -- featurizers that build padded
        arrays directly (``MSCNFeaturizer.featurize_workload``) skip the
        per-query set lists entirely.  Masked pooling makes the result
        independent of the padded length, so any padding >= the longest set
        gives the same output as :meth:`forward`.  ``train=False`` skips
        storing the backward-pass intermediates (inference only).
        """
        pooled = []
        for name in self.module_names:
            padded, mask = batch[name]
            pooled.append(self.modules[name].forward(padded, mask, train=train))
        concat = np.concatenate(pooled, axis=1)
        h = concat @ self.w1 + self.b1
        if train:
            self._concat = concat
            self._hm = h > 0
            h = h * self._hm
            self._h = h
        else:
            np.maximum(h, 0.0, out=h)
        out = h @ self.w2 + self.b2
        sig = 1.0 / (1.0 + np.exp(-np.clip(out, -60, 60)))
        if train:
            self._sig = sig
        return sig

    def _backward(self, grad: np.ndarray) -> None:
        grad = grad * self._sig * (1.0 - self._sig)
        self._head_grads[2][...] = self._h.T @ grad
        self._head_grads[3][...] = grad.sum(axis=0)
        g = (grad @ self.w2.T) * self._hm
        self._head_grads[0][...] = self._concat.T @ g
        self._head_grads[1][...] = g.sum(axis=0)
        g = g @ self.w1.T
        hidden = self.modules[self.module_names[0]].hidden
        for i, name in enumerate(self.module_names):
            self.modules[name].backward(g[:, i * hidden : (i + 1) * hidden])

    def parameters(self) -> list[np.ndarray]:
        params: list[np.ndarray] = []
        for name in self.module_names:
            params.extend(self.modules[name].parameters())
        params.extend([self.w1, self.b1, self.w2, self.b2])
        return params

    def gradients(self) -> list[np.ndarray]:
        grads: list[np.ndarray] = []
        for name in self.module_names:
            grads.extend(self.modules[name].grads)
        grads.extend(self._head_grads)
        return grads

    # -- training ---------------------------------------------------------------

    def fit(
        self,
        samples: Sequence[Mapping[str, np.ndarray]],
        y: np.ndarray,
        *,
        epochs: int = 80,
        lr: float = 1e-3,
        seed: int = 0,
    ) -> list[float]:
        """Train on per-query set dicts with targets ``y`` in ``[0, 1]``."""
        y = np.asarray(y, dtype=float)
        if y.ndim == 1:
            y = y[:, None]
        if len(samples) != y.shape[0]:
            raise ValueError("samples and targets length mismatch")
        if len(samples) == 0:
            raise ValueError("cannot fit on an empty workload")
        rng = np.random.default_rng(seed)
        opt = Adam(lr=lr)
        losses: list[float] = []
        n = len(samples)
        for _ in range(epochs):
            order = rng.permutation(n)
            total, batches = 0.0, 0
            for start in range(0, n, _BATCH_SIZE):
                idx = order[start : start + _BATCH_SIZE]
                batch = {
                    name: [samples[i][name] for i in idx] for name in self.module_names
                }
                pred = self.forward(batch)
                value, grad = mse_loss(pred, y[idx])
                self._backward(grad)
                opt.step(self.parameters(), self.gradients())
                total += value
                batches += 1
            losses.append(total / max(batches, 1))
        return losses

    def predict(self, samples: Sequence[Mapping[str, np.ndarray]]) -> np.ndarray:
        if not samples:
            return np.zeros(0)
        batch = {name: [s[name] for s in samples] for name in self.module_names}
        return self.forward(batch)[:, 0]

    def predict_padded(
        self, batch: Mapping[str, tuple[np.ndarray, np.ndarray]]
    ) -> np.ndarray:
        """Predictions from pre-padded sets (see :meth:`forward_padded`)."""
        return self.forward_padded(batch, train=False)[:, 0]
