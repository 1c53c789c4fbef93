"""Chow-Liu dependency trees over discrete columns.

The classic structure-learning algorithm behind the Bayesian-network
cardinality estimators (Tzoumas et al. [57], BayesCard [65]): compute
pairwise mutual information between all column pairs, take the maximum
spanning tree, and orient it away from a root to obtain a tree-shaped
Bayesian network that provably maximizes likelihood among trees.
"""

from __future__ import annotations

import numpy as np

__all__ = ["mutual_information", "chow_liu_tree"]


def mutual_information(a: np.ndarray, b: np.ndarray) -> float:
    """Mutual information (nats) between two integer-coded columns."""
    a = np.asarray(a, dtype=int)
    b = np.asarray(b, dtype=int)
    if a.shape != b.shape:
        raise ValueError("columns must have equal length")
    n = a.shape[0]
    if n == 0:
        return 0.0
    ka, kb = int(a.max()) + 1, int(b.max()) + 1
    joint = np.zeros((ka, kb))
    np.add.at(joint, (a, b), 1.0)
    joint /= n
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    nz = joint > 0
    outer = pa[:, None] * pb[None, :]
    return float((joint[nz] * np.log(joint[nz] / outer[nz])).sum())


def chow_liu_tree(data: np.ndarray) -> list[tuple[int, int]]:
    """Learn a Chow-Liu tree rooted at column 0; returns directed edges
    ``(parent, child)``.

    ``data`` is ``[n_rows, n_cols]`` integer-coded.  The returned edge list
    covers every column but 0 exactly once as a child; disconnected
    components (possible only with one column) yield an empty list.
    """
    data = np.asarray(data, dtype=int)
    if data.ndim != 2:
        raise ValueError("data must be 2-D")
    m = data.shape[1]
    if m <= 1:
        return []

    # Pairwise MI as edge weights; maximum spanning tree via Prim.
    weights = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            w = mutual_information(data[:, i], data[:, j])
            weights[i, j] = weights[j, i] = w

    in_tree = {0}
    parent = {0: -1}
    edges: list[tuple[int, int]] = []
    while len(in_tree) < m:
        best_w, best_edge = -1.0, None
        for u in in_tree:
            for v in range(m):
                if v not in in_tree and weights[u, v] > best_w:
                    best_w = weights[u, v]
                    best_edge = (u, v)
        assert best_edge is not None
        u, v = best_edge
        in_tree.add(v)
        parent[v] = u
        edges.append((u, v))
    return edges
