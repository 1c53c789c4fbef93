"""A small feed-forward neural-network framework on numpy.

Implements exactly what the learned-query-optimizer models in this repository
need: dense layers, ReLU and sigmoid activations, the Adam optimizer, and a
convenience :class:`MLP` wrapper (ReLU hidden layers, standardized inputs)
with mini-batch training, early stopping and an MSE loss.

The design follows the classic layer protocol: each layer exposes
``forward(x)`` and ``backward(grad)``; ``backward`` must be called
in reverse order of ``forward`` and returns the gradient with respect to the
layer input while accumulating parameter gradients internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "Layer",
    "Dense",
    "ReLU",
    "Sigmoid",
    "Sequential",
    "Adam",
    "MLP",
    "mse_loss",
]

#: rows per Adam step of :meth:`MLP.fit`
_BATCH_SIZE = 64


class Layer:
    """Base class for all layers.

    Subclasses must implement :meth:`forward` and :meth:`backward` and may
    expose trainable parameters through :meth:`parameters` /
    :meth:`gradients` (parallel lists of arrays).
    """

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def parameters(self) -> list[np.ndarray]:
        return []

    def gradients(self) -> list[np.ndarray]:
        return []


class Dense(Layer):
    """Fully connected layer ``y = x @ W + b`` with He/Xavier init."""

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        *,
        rng: np.random.Generator,
        init: str = "he",
    ) -> None:
        if in_dim <= 0 or out_dim <= 0:
            raise ValueError(f"Dense dims must be positive, got {in_dim}x{out_dim}")
        if init == "he":
            scale = math.sqrt(2.0 / in_dim)
        elif init == "xavier":
            scale = math.sqrt(1.0 / in_dim)
        else:
            raise ValueError(f"unknown init {init!r}")
        self.w = rng.normal(0.0, scale, size=(in_dim, out_dim))
        self.b = np.zeros(out_dim)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return x @ self.w + self.b

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._x is not None, "backward called before forward"
        self.dw = self._x.T @ grad
        self.db = grad.sum(axis=0)
        return grad @ self.w.T

    def parameters(self) -> list[np.ndarray]:
        return [self.w, self.b]

    def gradients(self) -> list[np.ndarray]:
        return [self.dw, self.db]


class ReLU(Layer):
    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad * self._mask


class Sigmoid(Layer):
    def forward(self, x: np.ndarray) -> np.ndarray:
        # Numerically stable sigmoid.
        out = np.empty_like(x, dtype=float)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        self._out = out
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad * self._out * (1.0 - self._out)


class Sequential(Layer):
    """A simple container running layers in order."""

    def __init__(self, layers: Sequence[Layer]) -> None:
        self.layers = list(layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def parameters(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.parameters()]

    def gradients(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.gradients()]


class Adam:
    """Adam optimizer (Kingma & Ba) operating in-place on parameter arrays.

    A step allocates nothing: it works through two scratch buffers per
    parameter, made on the first step, in the textbook update's op order.
    """

    beta1 = 0.9
    beta2 = 0.999

    def __init__(self, lr: float = 1e-3) -> None:
        self.lr = lr
        self._m: list[np.ndarray] | None = None
        self._v: list[np.ndarray] | None = None
        self._scratch: list[tuple[np.ndarray, np.ndarray]] = []
        self._t = 0

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        if self._m is None:
            self._m = [np.zeros_like(p) for p in params]
            self._v = [np.zeros_like(p) for p in params]
            self._scratch = [(np.empty_like(p), np.empty_like(p)) for p in params]
        self._t += 1
        b1t = 1.0 - self.beta1**self._t
        b2t = 1.0 - self.beta2**self._t
        for p, g, m, v, (a, b) in zip(params, grads, self._m, self._v, self._scratch):
            # m = b1 m + (1 - b1) g;  v = b2 v + ((1 - b2) g) g
            np.multiply(g, 1.0 - self.beta1, out=a)
            m *= self.beta1
            m += a
            np.multiply(g, 1.0 - self.beta2, out=a)
            a *= g
            v *= self.beta2
            v += a
            # p -= (lr (m / b1t)) / (sqrt(v / b2t) + 1e-8)
            np.divide(m, b1t, out=a)
            a *= self.lr
            np.divide(v, b2t, out=b)
            np.sqrt(b, out=b)
            b += 1e-8
            a /= b
            p -= a


# ---------------------------------------------------------------------------
# Losses.  Each returns (loss_value, gradient_wrt_prediction).
# ---------------------------------------------------------------------------


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    diff = pred - target
    n = max(pred.size, 1)
    return float((diff**2).mean()), (2.0 / n) * diff


@dataclass
class TrainLog:
    """Per-epoch training diagnostics returned by :meth:`MLP.fit`."""

    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    stopped_early: bool = False


class MLP:
    """A multi-layer perceptron with a sklearn-like ``fit``/``predict`` API.

    Parameters
    ----------
    in_dim:
        Input feature dimension.
    hidden:
        Sizes of hidden layers, e.g. ``(64, 64)``.
    output_activation:
        ``"sigmoid"`` for probabilities, ``None`` for regression.
    seed:
        Seed for weight init and batching; training is deterministic for a
        fixed seed.
    """

    def __init__(
        self,
        in_dim: int,
        hidden: Sequence[int] = (64, 64),
        *,
        output_activation: str | None = None,
        seed: int = 0,
    ) -> None:
        self.in_dim = in_dim
        rng = np.random.default_rng(seed)
        layers: list[Layer] = []
        prev = in_dim
        for width in hidden:
            layers.append(Dense(prev, width, rng=rng))
            layers.append(ReLU())
            prev = width
        layers.append(Dense(prev, 1, init="xavier", rng=rng))
        if output_activation == "sigmoid":
            layers.append(Sigmoid())
        elif output_activation is not None:
            raise ValueError(f"unknown output activation {output_activation!r}")
        self.net = Sequential(layers)
        self._rng = rng
        self._x_mean: np.ndarray | None = None
        self._x_std: np.ndarray | None = None

    # -- normalization ------------------------------------------------------

    def _fit_normalizer(self, x: np.ndarray) -> None:
        self._x_mean = x.mean(axis=0)
        std = x.std(axis=0)
        std[std < 1e-12] = 1.0
        self._x_std = std

    def _normalize(self, x: np.ndarray) -> np.ndarray:
        if self._x_mean is None:
            return x
        return (x - self._x_mean) / self._x_std

    # -- training -----------------------------------------------------------

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        *,
        epochs: int = 100,
        lr: float = 1e-3,
        val_fraction: float = 0.0,
        sample_weight: np.ndarray | None = None,
    ) -> TrainLog:
        """Train with Adam and mini-batches on the squared error; returns a
        :class:`TrainLog`.

        When ``val_fraction > 0`` a validation split is held out; training
        stops after 10 epochs without a better validation loss and the best
        weights are restored.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if y.ndim == 1:
            y = y[:, None]
        if x.shape[0] != y.shape[0]:
            raise ValueError(f"x has {x.shape[0]} rows but y has {y.shape[0]}")
        if x.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")

        self._fit_normalizer(x)
        x = self._normalize(x)

        if sample_weight is not None:
            sample_weight = np.asarray(sample_weight, dtype=float)
            if sample_weight.shape[0] != x.shape[0]:
                raise ValueError("sample_weight length mismatch")

        n = x.shape[0]
        val_x = val_y = None
        if val_fraction > 0.0 and n >= 10:
            idx = self._rng.permutation(n)
            n_val = max(1, int(n * val_fraction))
            val_idx, train_idx = idx[:n_val], idx[n_val:]
            val_x, val_y = x[val_idx], y[val_idx]
            x, y = x[train_idx], y[train_idx]
            if sample_weight is not None:
                sample_weight = sample_weight[train_idx]
            n = x.shape[0]

        opt = Adam(lr=lr)
        log = TrainLog()
        best_val = math.inf
        best_params: list[np.ndarray] | None = None
        bad_epochs = 0

        for _ in range(epochs):
            order = self._rng.permutation(n)
            epoch_loss = 0.0
            n_batches = 0
            for start in range(0, n, _BATCH_SIZE):
                batch = order[start : start + _BATCH_SIZE]
                pred = self.net.forward(x[batch])
                value, grad = mse_loss(pred, y[batch])
                if sample_weight is not None:
                    w = sample_weight[batch][:, None]
                    value = float((w * (pred - y[batch]) ** 2).mean())
                    grad = grad * w
                self.net.backward(grad)
                opt.step(self.net.parameters(), self.net.gradients())
                epoch_loss += value
                n_batches += 1
            log.train_losses.append(epoch_loss / max(n_batches, 1))

            if val_x is not None:
                val_pred = self.net.forward(val_x)
                val_value, _ = mse_loss(val_pred, val_y)
                log.val_losses.append(val_value)
                if val_value < best_val - 1e-9:
                    best_val = val_value
                    best_params = [p.copy() for p in self.net.parameters()]
                    bad_epochs = 0
                else:
                    bad_epochs += 1
                    if bad_epochs >= 10:
                        log.stopped_early = True
                        break

        if best_params is not None:
            for p, best in zip(self.net.parameters(), best_params):
                p[...] = best
        return log

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        out = self.net.forward(self._normalize(x))[:, 0]
        return out[0] if single else out
