"""Naru's progressive sampling as the estimators carried it, kept as the
reference.

Before :meth:`repro.ml.autoregressive.MaskedAutoregressiveNetwork.
box_probability` existed the loop was written twice, line for line:
:func:`naru_box_probability` is ``cardest/datadriven.py``'s
``_TableNaru.box_probability`` and :func:`neurocard_box_probability` is the
tail of ``cardest/neurocard.py``'s ``_TemplateModel.estimate``, each with
``self.net`` / ``self._rng`` turned into arguments.  They differ in one
place: Naru meets an empty ``allowed[col]`` *inside* the walk, after drawing
for the earlier columns; NeuroCard's caller returned 0 before the walk, so
its loop has no such check.  The shared method must reproduce both to the
last bit, draws included (``tests/test_cardest_methods.py``).  Do not
optimise this file.
"""

from __future__ import annotations

import numpy as np

__all__ = ["naru_box_probability", "neurocard_box_probability"]


def naru_box_probability(net, rng, allowed, n_samples):
    n_cols = net.n_cols
    rows = np.zeros((n_samples, n_cols), dtype=int)
    mass = np.ones(n_samples)
    for col in range(n_cols):
        probs = net.conditional_distribution(rows, col)
        if allowed[col] is not None:
            bins = allowed[col]
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


def neurocard_box_probability(net, rng, allowed, n_samples):
    n_cols = net.n_cols
    rows = np.zeros((n_samples, n_cols), dtype=int)
    mass = np.ones(n_samples)
    for col in range(n_cols):
        probs = net.conditional_distribution(rows, col)
        if allowed[col] is not None:
            mask = np.zeros(probs.shape[1])
            mask[allowed[col]] = 1.0
            probs = probs * mask[None, :]
        col_mass = probs.sum(axis=1)
        mass *= col_mass
        safe = np.where(col_mass[:, None] > 0, probs, 1.0 / probs.shape[1])
        safe = safe / safe.sum(axis=1, keepdims=True)
        cdf = safe.cumsum(axis=1)
        u = rng.random((n_samples, 1))
        rows[:, col] = (u > cdf).sum(axis=1)
    return float(mass.mean())
