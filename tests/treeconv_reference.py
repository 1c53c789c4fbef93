"""The pre-corpus tree-convolution kernel, kept as the reference.

This is ``repro/ml/treeconv.py`` as it stood before the training-kernel
rewrite: a per-batch ``from_trees`` Python loop, a per-tree ``argmax`` loop
in ``embed``, ``np.add.at`` for the un-pool and the two child scatters, and
Adam stepping eight separate arrays through fresh temporaries
(:class:`ReferenceAdam`, the optimizer as it stood before its in-place
step).  The rewrite must reproduce it bit for
bit; ``tests/test_treeconv_kernel.py`` asserts that and
``benchmarks/bench_p6_fastpath.py`` uses it as the interpreted baseline.
Do not optimise this file.

It computes in the dtype of its parameters: a net draws them in float64,
as the kernel did, and :meth:`ReferenceTreeConvNet.astype` casts them to
the kernel's ``DTYPE``.  Features and targets are cast to that dtype, and
every buffer takes it from the parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.ml.nn import mse_loss

__all__ = ["ReferenceAdam", "ReferencePlanTreeBatch", "ReferenceTreeConvNet"]


class ReferenceAdam:
    """Adam (Kingma & Ba), each step through freshly allocated temporaries."""

    beta1 = 0.9
    beta2 = 0.999

    def __init__(self, lr: float = 1e-3) -> None:
        self.lr = lr
        self._m: list[np.ndarray] | None = None
        self._v: list[np.ndarray] | None = None
        self._t = 0

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        if self._m is None:
            self._m = [np.zeros_like(p) for p in params]
            self._v = [np.zeros_like(p) for p in params]
        self._t += 1
        b1t = 1.0 - self.beta1**self._t
        b2t = 1.0 - self.beta2**self._t
        for p, g, m, v in zip(params, grads, self._m, self._v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + 1e-8)


@dataclass
class ReferencePlanTreeBatch:
    """A batch of binary trees flattened for vectorized tree convolution.

    Attributes
    ----------
    features:
        ``[1 + total_nodes, node_dim]`` array; row 0 is the all-zero null
        node used as the child of leaves.
    left, right:
        ``[total_nodes]`` int arrays indexing into ``features`` (0 = null).
    tree_slices:
        per-tree ``(start, stop)`` ranges into rows ``1..total_nodes`` of
        ``features`` (offsets already include the +1 null-row shift).
    """

    features: np.ndarray
    left: np.ndarray
    right: np.ndarray
    tree_slices: list[tuple[int, int]]

    @property
    def n_trees(self) -> int:
        return len(self.tree_slices)

    @classmethod
    def from_trees(
        cls, trees: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]]
    ) -> "ReferencePlanTreeBatch":
        """Build a batch from ``(features, left, right)`` triples.

        Each tree supplies node ``features`` of shape ``[n, d]`` and per-node
        child indices ``left``/``right`` in ``[-1, n)``, where ``-1`` means
        "no child".
        """
        if not trees:
            raise ValueError("cannot batch zero trees")
        node_dim = np.asarray(trees[0][0]).shape[1]
        all_feats = [np.zeros((1, node_dim))]
        all_left: list[np.ndarray] = []
        all_right: list[np.ndarray] = []
        slices: list[tuple[int, int]] = []
        offset = 1  # row 0 is the null node
        for feats, left, right in trees:
            feats = np.asarray(feats, dtype=float)
            left = np.asarray(left, dtype=int)
            right = np.asarray(right, dtype=int)
            n = feats.shape[0]
            if feats.ndim != 2 or feats.shape[1] != node_dim:
                raise ValueError("inconsistent node feature dimensions in batch")
            if left.shape != (n,) or right.shape != (n,):
                raise ValueError("child index arrays must have one entry per node")
            if n == 0:
                raise ValueError("cannot batch an empty tree")
            # Shift child indices into the global array; -1 becomes the null row.
            all_left.append(np.where(left >= 0, left + offset, 0))
            all_right.append(np.where(right >= 0, right + offset, 0))
            all_feats.append(feats)
            slices.append((offset, offset + n))
            offset += n
        return cls(
            features=np.concatenate(all_feats, axis=0),
            left=np.concatenate(all_left),
            right=np.concatenate(all_right),
            tree_slices=slices,
        )


class _TreeConvLayer:
    """One tree-convolution layer: ``h_v = relu([x_v ; x_l ; x_r] W + b)``."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator) -> None:
        scale = math.sqrt(2.0 / (3 * in_dim))
        self.w = rng.normal(0.0, scale, size=(3 * in_dim, out_dim))
        self.b = np.zeros(out_dim)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)
        self.in_dim = in_dim

    def forward(self, x: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        # x: [1+N, in_dim] with null row 0.  Output: [1+N, out_dim].
        self._concat = np.concatenate([x[1:], x[left], x[right]], axis=1)
        self._left, self._right = left, right
        pre = self._concat @ self.w + self.b
        self._mask = pre > 0
        out = np.zeros((x.shape[0], self.w.shape[1]), self.w.dtype)
        out[1:] = pre * self._mask
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        # grad_out: [1+N, out_dim]; row 0 is ignored (null node has no grad).
        g = grad_out[1:] * self._mask
        self.dw = self._concat.T @ g
        self.db = g.sum(axis=0)
        d_concat = g @ self.w.T
        d = self.in_dim
        grad_in = np.zeros((grad_out.shape[0], d), self.w.dtype)
        grad_in[1:] += d_concat[:, :d]
        np.add.at(grad_in, self._left, d_concat[:, d : 2 * d])
        np.add.at(grad_in, self._right, d_concat[:, 2 * d :])
        grad_in[0] = 0.0
        return grad_in

    def parameters(self) -> list[np.ndarray]:
        return [self.w, self.b]

    def gradients(self) -> list[np.ndarray]:
        return [self.dw, self.db]


class _DenseRelu:
    """Dense + optional ReLU used in the pooled head."""

    def __init__(
        self, in_dim: int, out_dim: int, rng: np.random.Generator, relu: bool = True
    ) -> None:
        scale = math.sqrt(2.0 / in_dim) if relu else math.sqrt(1.0 / in_dim)
        self.w = rng.normal(0.0, scale, size=(in_dim, out_dim))
        self.b = np.zeros(out_dim)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)
        self.relu = relu

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        out = x @ self.w + self.b
        if self.relu:
            self._mask = out > 0
            out = out * self._mask
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self.relu:
            grad = grad * self._mask
        self.dw = self._x.T @ grad
        self.db = grad.sum(axis=0)
        return grad @ self.w.T

    def parameters(self) -> list[np.ndarray]:
        return [self.w, self.b]

    def gradients(self) -> list[np.ndarray]:
        return [self.dw, self.db]


class ReferenceTreeConvNet:
    """Tree-convolution network: conv stack -> max pool -> MLP head.

    Parameters
    ----------
    node_dim:
        Dimension of per-node feature vectors.
    conv_channels:
        Output widths of the tree-convolution layers.
    head_hidden:
        Hidden widths of the MLP head applied to the pooled embedding.
    out_dim:
        Output dimension (1 for cost regression).
    sigmoid_output:
        If True the output is passed through a sigmoid (used for pairwise
        preference models such as Lero's plan comparator).
    """

    def __init__(
        self,
        node_dim: int,
        conv_channels: Sequence[int] = (64, 64),
        head_hidden: Sequence[int] = (32,),
        out_dim: int = 1,
        *,
        sigmoid_output: bool = False,
        seed: int = 0,
    ) -> None:
        rng = np.random.default_rng(seed)
        self.node_dim = node_dim
        self.out_dim = out_dim
        self.sigmoid_output = sigmoid_output
        self.conv_layers: list[_TreeConvLayer] = []
        prev = node_dim
        for width in conv_channels:
            self.conv_layers.append(_TreeConvLayer(prev, width, rng))
            prev = width
        self.head: list[_DenseRelu] = []
        for width in head_hidden:
            self.head.append(_DenseRelu(prev, width, rng, relu=True))
            prev = width
        self.head.append(_DenseRelu(prev, out_dim, rng, relu=False))

    @property
    def dtype(self) -> np.dtype:
        return self.head[-1].w.dtype

    def astype(self, dtype) -> "ReferenceTreeConvNet":
        """Cast every parameter and gradient to ``dtype`` in place; ``self``."""
        for layer in [*self.conv_layers, *self.head]:
            for name in ("w", "b", "dw", "db"):
                setattr(layer, name, getattr(layer, name).astype(dtype))
        return self

    # -- forward / backward ---------------------------------------------------

    def embed(self, batch: ReferencePlanTreeBatch) -> np.ndarray:
        """Return the pooled plan embedding (before the head), ``[B, C]``."""
        x = batch.features.astype(self.dtype)
        for layer in self.conv_layers:
            x = layer.forward(x, batch.left, batch.right)
        pooled = np.empty((batch.n_trees, x.shape[1]), self.dtype)
        self._argmax: list[np.ndarray] = []
        for i, (start, stop) in enumerate(batch.tree_slices):
            rows = x[start:stop]
            arg = rows.argmax(axis=0)
            self._argmax.append(arg + start)
            pooled[i] = rows[arg, np.arange(rows.shape[1])]
        self._last_x_shape = x.shape
        return pooled

    def forward(self, batch: ReferencePlanTreeBatch) -> np.ndarray:
        pooled = self.embed(batch)
        h = pooled
        for layer in self.head:
            h = layer.forward(h)
        if self.sigmoid_output:
            self._sig = 1.0 / (1.0 + np.exp(-np.clip(h, -60, 60)))
            return self._sig
        return h

    def _backward(self, batch: ReferencePlanTreeBatch, grad: np.ndarray) -> None:
        if self.sigmoid_output:
            grad = grad * self._sig * (1.0 - self._sig)
        for layer in reversed(self.head):
            grad = layer.backward(grad)
        # Un-pool: route each pooled gradient to the argmax node.
        grad_nodes = np.zeros(self._last_x_shape, self.dtype)
        for i in range(batch.n_trees):
            cols = np.arange(grad_nodes.shape[1])
            np.add.at(grad_nodes, (self._argmax[i], cols), grad[i])
        g = grad_nodes
        for layer in reversed(self.conv_layers):
            g = layer.backward(g)

    def parameters(self) -> list[np.ndarray]:
        params: list[np.ndarray] = []
        for layer in self.conv_layers:
            params.extend(layer.parameters())
        for layer in self.head:
            params.extend(layer.parameters())
        return params

    def gradients(self) -> list[np.ndarray]:
        grads: list[np.ndarray] = []
        for layer in self.conv_layers:
            grads.extend(layer.gradients())
        for layer in self.head:
            grads.extend(layer.gradients())
        return grads

    # -- training / inference ---------------------------------------------------

    def fit(
        self,
        trees: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
        y: np.ndarray,
        *,
        epochs: int = 60,
        batch_size: int = 32,
        lr: float = 1e-3,
        loss: str = "mse",
        seed: int = 0,
        verbose: bool = False,
    ) -> list[float]:
        """Train on a corpus of trees; returns per-epoch losses."""
        y = np.asarray(y, self.dtype)
        if y.ndim == 1:
            y = y[:, None]
        if len(trees) != y.shape[0]:
            raise ValueError("number of trees and targets differ")
        if len(trees) == 0:
            raise ValueError("cannot fit on an empty corpus")
        loss_fn = {"mse": mse_loss}[loss]
        rng = np.random.default_rng(seed)
        opt = ReferenceAdam(lr=lr)
        losses: list[float] = []
        n = len(trees)
        for epoch in range(epochs):
            order = rng.permutation(n)
            total, batches = 0.0, 0
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                batch = ReferencePlanTreeBatch.from_trees([trees[i] for i in idx])
                pred = self.forward(batch)
                value, grad = loss_fn(pred, y[idx])
                self._backward(batch, grad)
                opt.step(self.parameters(), self.gradients())
                total += value
                batches += 1
            losses.append(total / max(batches, 1))
            if verbose and epoch % 10 == 0:
                print(f"treeconv epoch {epoch}: loss={losses[-1]:.6f}")
        return losses

    def predict(
        self, trees: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]]
    ) -> np.ndarray:
        if not trees:
            return np.zeros((0, self.out_dim), self.dtype)
        out = self.forward(ReferencePlanTreeBatch.from_trees(trees))
        return out[:, 0] if self.out_dim == 1 else out
