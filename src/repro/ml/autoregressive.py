"""Masked autoregressive network (MADE) over discrete columns.

This is the model underlying the Naru [71] / NeuroCard [70] family of
data-driven cardinality estimators: the joint distribution over ``m``
discrete columns is factorized as ``P(x) = prod_i P(x_i | x_<i>)`` and a
single masked network computes all ``m`` conditionals in one forward pass.

Columns are fed as concatenated one-hot vectors; output block ``i`` holds the
logits of column ``i`` conditioned on columns ``< i``.  The autoregressive
property is enforced with MADE-style binary masks on the dense layers:

- an input unit belonging to column ``i`` has degree ``i``;
- hidden units get degrees cycling over ``0 .. m-2``;
- connection input->hidden allowed iff ``deg_hidden >= deg_input``;
- connection hidden->output(col i) allowed iff ``deg_hidden < i``
  (strict, so block ``i`` never sees column ``i`` or later).

Training maximizes the exact data log-likelihood (sum of per-column
cross-entropies).  Inference for range queries is progressive sampling
(:meth:`MaskedAutoregressiveNetwork.box_probability`), the one loop the
Naru, NeuroCard and UAE estimators share.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.ml.nn import Adam

__all__ = ["MaskedAutoregressiveNetwork"]

#: rows per Adam step of :meth:`MaskedAutoregressiveNetwork.fit`
_BATCH_SIZE = 256


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


class MaskedAutoregressiveNetwork:
    """MADE over discrete columns with per-column one-hot inputs.

    Parameters
    ----------
    domain_sizes:
        Number of distinct (binned) values per column, in column order.
        The factorization order is exactly this column order.
    hidden:
        Hidden layer widths.
    seed:
        Deterministic init/batching seed.
    """

    def __init__(
        self,
        domain_sizes: Sequence[int],
        hidden: Sequence[int] = (128, 128),
        *,
        seed: int = 0,
    ) -> None:
        self.domain_sizes = [int(k) for k in domain_sizes]
        if any(k < 1 for k in self.domain_sizes):
            raise ValueError("every column needs at least one distinct value")
        self.n_cols = len(self.domain_sizes)
        if self.n_cols < 1:
            raise ValueError("need at least one column")
        self.in_dim = sum(self.domain_sizes)
        self.out_dim = self.in_dim  # one logit per (column, value)
        rng = np.random.default_rng(seed)

        # Degree assignment.
        in_degrees = np.concatenate(
            [np.full(k, i) for i, k in enumerate(self.domain_sizes)]
        )
        out_degrees = in_degrees.copy()

        # Column offsets for slicing one-hot blocks.
        self.offsets = np.zeros(self.n_cols + 1, dtype=int)
        np.cumsum(self.domain_sizes, out=self.offsets[1:])

        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        self.masks: list[np.ndarray] = []
        prev_deg = in_degrees
        prev_dim = self.in_dim
        max_hidden_deg = max(self.n_cols - 2, 0)
        for width in hidden:
            h_deg = np.arange(width) % (max_hidden_deg + 1)
            mask = (h_deg[None, :] >= prev_deg[:, None]).astype(float)
            scale = math.sqrt(2.0 / prev_dim)
            self.weights.append(rng.normal(0.0, scale, size=(prev_dim, width)))
            self.biases.append(np.zeros(width))
            self.masks.append(mask)
            prev_deg = h_deg
            prev_dim = width
        # Output layer: strict inequality so column i sees only columns < i.
        out_mask = (out_degrees[None, :] > prev_deg[:, None]).astype(float)
        scale = math.sqrt(1.0 / prev_dim)
        self.weights.append(rng.normal(0.0, scale, size=(prev_dim, self.out_dim)))
        self.biases.append(np.zeros(self.out_dim))
        self.masks.append(out_mask)
        self._grads_w = [np.zeros_like(w) for w in self.weights]
        self._grads_b = [np.zeros_like(b) for b in self.biases]
        self._rng = rng

    # -- encoding -----------------------------------------------------------------

    def encode(self, rows: np.ndarray) -> np.ndarray:
        """One-hot encode integer rows ``[n, n_cols]`` -> ``[n, in_dim]``."""
        rows = np.asarray(rows, dtype=int)
        if rows.ndim == 1:
            rows = rows[None, :]
        if rows.shape[1] != self.n_cols:
            raise ValueError(f"expected {self.n_cols} columns, got {rows.shape[1]}")
        n = rows.shape[0]
        onehot = np.zeros((n, self.in_dim))
        for i, k in enumerate(self.domain_sizes):
            vals = rows[:, i]
            if (vals < 0).any() or (vals >= k).any():
                raise ValueError(f"column {i} has values outside [0, {k})")
            onehot[np.arange(n), self.offsets[i] + vals] = 1.0
        return onehot

    # -- forward / logits --------------------------------------------------------

    def forward(self, onehot: np.ndarray) -> np.ndarray:
        """Return raw logits ``[n, out_dim]`` (per-column blocks)."""
        self._acts = [onehot]
        self._relu_masks = []
        x = onehot
        last = len(self.weights) - 1
        for i, (w, b, m) in enumerate(zip(self.weights, self.biases, self.masks)):
            x = x @ (w * m) + b
            if i < last:
                mask = x > 0
                self._relu_masks.append(mask)
                x = x * mask
            self._acts.append(x)
        return x

    def column_logits(self, logits: np.ndarray, col: int) -> np.ndarray:
        return logits[:, self.offsets[col] : self.offsets[col + 1]]

    def conditional_distribution(self, rows: np.ndarray, col: int) -> np.ndarray:
        """``P(x_col | x_<col>)`` for each row; later columns are ignored.

        ``rows`` may contain arbitrary values in columns ``>= col`` (they
        cannot influence block ``col`` by the masking construction); callers
        typically pass a partially sampled prefix padded with zeros.
        """
        logits = self.forward(self.encode(rows))
        return _softmax(self.column_logits(logits, col))

    # -- training -------------------------------------------------------------------

    def _loss_and_backward(self, rows: np.ndarray) -> float:
        onehot = self.encode(rows)
        logits = self.forward(onehot)
        n = rows.shape[0]
        grad = np.zeros_like(logits)
        loss = 0.0
        for i in range(self.n_cols):
            block = self.column_logits(logits, i)
            probs = _softmax(block)
            lsm = _log_softmax(block)
            loss -= lsm[np.arange(n), rows[:, i]].sum()
            g = probs.copy()
            g[np.arange(n), rows[:, i]] -= 1.0
            grad[:, self.offsets[i] : self.offsets[i + 1]] = g / n
        loss /= n

        # Backprop through masked dense stack.
        last = len(self.weights) - 1
        g = grad
        for i in range(last, -1, -1):
            x_in = self._acts[i]
            w, m = self.weights[i], self.masks[i]
            self._grads_w[i][...] = (x_in.T @ g) * m
            self._grads_b[i][...] = g.sum(axis=0)
            if i > 0:
                g = g @ (w * m).T
                g = g * self._relu_masks[i - 1]
        return loss

    def fit(
        self,
        rows: np.ndarray,
        *,
        epochs: int = 20,
        lr: float = 8e-3,
    ) -> list[float]:
        """Maximum-likelihood training on integer-coded rows."""
        rows = np.asarray(rows, dtype=int)
        if rows.ndim != 2 or rows.shape[1] != self.n_cols:
            raise ValueError(f"rows must be [n, {self.n_cols}]")
        if rows.shape[0] == 0:
            raise ValueError("cannot fit on empty data")
        opt = Adam(lr=lr)
        params = self.weights + self.biases
        losses: list[float] = []
        n = rows.shape[0]
        for _ in range(epochs):
            order = self._rng.permutation(n)
            total, batches = 0.0, 0
            for start in range(0, n, _BATCH_SIZE):
                batch = rows[order[start : start + _BATCH_SIZE]]
                total += self._loss_and_backward(batch)
                grads = self._grads_w + self._grads_b
                opt.step(params, grads)
                batches += 1
            losses.append(total / max(batches, 1))
        return losses

    # -- inference ----------------------------------------------------------------

    def box_probability(
        self,
        allowed: Sequence[np.ndarray | None],
        n_samples: int,
        rng: np.random.Generator,
    ) -> float:
        """Progressive-sampling estimate of ``P(X in box)`` (Naru [71]).

        ``allowed[col]`` holds the admissible values of column ``col``, or
        None for an unconstrained column.  Columns are walked in
        factorization order, ``n_samples`` prefixes at a time, each drawing
        its next value from the conditional restricted to the box.  An empty
        ``allowed[col]`` returns 0.0 when the walk *reaches* that column,
        after ``rng`` has been drawn from for the earlier ones.
        """
        rows = np.zeros((n_samples, self.n_cols), dtype=int)
        mass = np.ones(n_samples)
        for col in range(self.n_cols):
            probs = self.conditional_distribution(rows, col)
            bins = allowed[col]
            if bins is not None:
                if bins.size == 0:
                    return 0.0
                mask = np.zeros(probs.shape[1])
                mask[bins] = 1.0
                probs = probs * mask[None, :]
            col_mass = probs.sum(axis=1)
            mass *= col_mass
            # Renormalize and sample the next prefix value; dead paths
            # (zero mass) sample from anything, their weight is already 0.
            safe = np.where(col_mass[:, None] > 0, probs, 1.0 / probs.shape[1])
            safe = safe / safe.sum(axis=1, keepdims=True)
            cdf = safe.cumsum(axis=1)
            u = rng.random((n_samples, 1))
            rows[:, col] = (u > cdf).sum(axis=1)
        return float(mass.mean())
