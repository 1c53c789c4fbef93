"""Risk models (the second half of the §2.2 framework).

- :class:`TreeConvLatencyModel` -- pointwise latency regression with a
  bootstrap ensemble; Thompson sampling over members gives Bao's
  exploration behaviour [37];
- :class:`PairwisePlanComparator` -- Lero/LEON-style learning-to-rank:
  a tree-conv scorer trained with BCE on same-query plan pairs [79, 4];
- :class:`EnsembleLatencyModel` -- HyperQO's multi-head predictor with a
  variance filter over candidates [72];
- :class:`PlanValueModel` -- Neo/Balsa/LOGER's value network over partial
  *and* complete plans [38, 69, 3]; the same object guides
  :class:`repro.e2e.exploration.ValueSearchExploration`.

All satisfy :class:`repro.core.framework.RiskModel` (``scores`` /
``observe`` / ``retrain``).  Until the first retrain every model falls
back to preferring the candidate whose source is ``"default"`` -- learned
optimizers ship the native plan during warm-up, which is what keeps their
cold-start behaviour safe.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import tee
from typing import Sequence

import numpy as np

from repro.core.framework import OBSERVATION_WINDOW, CandidatePlan
from repro.costmodel.features import (
    NodeTable,
    PlanFeaturizer,
    plan_to_tree_arrays,
    prefix_to_tree_arrays,
)
from repro.engine.plans import Plan
from repro.ml.nn import Adam
from repro.ml.treeconv import PlanTreeBatch, PlanTreeCorpus, TreeConvNet, shuffles
from repro.sql.query import Query

__all__ = [
    "TreeConvLatencyModel",
    "PairwisePlanComparator",
    "EnsembleLatencyModel",
    "PlanValueModel",
]


def _default_scores(candidates: Sequence[CandidatePlan]) -> list[float]:
    """Warm-up scoring: the native ('default') candidate wins."""
    return [0.0 if c.source == "default" else 1.0 for c in candidates]


def _decision_batch(
    candidates: Sequence[CandidatePlan], featurizer: PlanFeaturizer
) -> PlanTreeBatch:
    """The inference batch of one decision's candidates, gathered from one
    node table, which featurizes each distinct plan node once and dies
    with the decision.

    Each candidate keeps its tree, tagged with the featurizer and its
    coster's state, for :func:`_candidate_tree` when the chosen one is
    observed.  A candidate lives for one decision and no model holds it,
    so no model fingerprint sees the table or the kept trees.
    """
    table = NodeTable(featurizer, [c.plan for c in candidates])
    state = featurizer.coster.cache_tag()
    for c in candidates:
        tree = plan_to_tree_arrays(c.plan, featurizer, table=table)
        object.__setattr__(c, "_tree", (featurizer, state, tree))
    return table.batch()


def _candidate_tree(candidate: CandidatePlan, featurizer: PlanFeaturizer) -> tuple:
    """The tree :func:`_decision_batch` kept on ``candidate`` if it was made
    by ``featurizer`` in its current state, else a fresh featurization."""
    kept = candidate.__dict__.get("_tree")
    if (
        kept is not None
        and kept[0] is featurizer
        and kept[1] == featurizer.coster.cache_tag()
    ):
        return kept[2]
    return plan_to_tree_arrays(candidate.plan, featurizer)


class TreeConvLatencyModel:
    """Pointwise tree-conv latency model with optional Thompson sampling.

    A retrain draws each member's bootstrap sample but fits no member: it
    records one owed fit per member, and :meth:`_member` runs it when that
    member is next read.  Thompson sampling reads one member a decision, so
    a retrain's fits land on the requests that first sample each member,
    and a fit no request reads never runs.  A fit depends only on its
    snapshot, its seed and the member's previous weights, and every read
    forces it first, so each prediction is the one an eager refit made.
    """

    min_observations = 20  # retrain is a no-op below this
    epochs = 30  # per member refit

    def __init__(
        self,
        featurizer: PlanFeaturizer,
        n_members: int = 3,
        *,
        thompson: bool = True,
        seed: int = 0,
    ) -> None:
        self.featurizer = featurizer
        self.thompson = thompson
        self._members = [
            TreeConvNet(
                featurizer.node_dim,
                conv_channels=(32, 32),
                head_hidden=(16,),
                seed=seed + i,
            )
            for i in range(max(n_members, 1))
        ]
        # Member i's owed fit: (bootstrap corpus, targets), or None.
        self._owed: list[tuple[PlanTreeCorpus, np.ndarray] | None] = [
            None for _ in self._members
        ]
        self._rng = np.random.default_rng(seed + 100)
        self._trees: deque[tuple] = deque(maxlen=OBSERVATION_WINDOW)
        self._latencies: deque[float] = deque(maxlen=OBSERVATION_WINDOW)
        self._trained = False

    @property
    def trained(self) -> bool:
        """Whether a retrain has run (else: default wins)."""
        return self._trained

    def observe(self, candidate: CandidatePlan, latency_ms: float) -> None:
        self._trees.append(_candidate_tree(candidate, self.featurizer))
        self._latencies.append(float(latency_ms))

    def retrain(self) -> None:
        n = len(self._latencies)
        if n < self.min_observations:
            return
        y = np.log1p(np.maximum(np.array(self._latencies), 0.0))
        corpus = PlanTreeCorpus.from_trees(self._trees)
        for i in range(len(self._members)):
            # Bootstrap resample per member (Bao's approximate posterior).
            idx = self._rng.integers(0, n, size=n)
            self._member(i)  # a member owes at most one fit
            self._owed[i] = (corpus.resample(idx), y[idx])
        self._trained = True

    def _member(self, i: int) -> TreeConvNet:
        """Member ``i``, after running the fit it owes."""
        member, owed = self._members[i], self._owed[i]
        if owed is not None:
            self._owed[i] = None
            member.fit(owed[0], owed[1], epochs=self.epochs, lr=1e-3, seed=i)
        return member

    def members(self) -> list[TreeConvNet]:
        """Every member, each with its owed fit run."""
        return [self._member(i) for i in range(len(self._members))]

    def scores(self, candidates: Sequence[CandidatePlan]) -> list[float]:
        if not self._trained:
            return _default_scores(candidates)
        batch = _decision_batch(candidates, self.featurizer)
        if self.thompson:
            member = self._member(int(self._rng.integers(len(self._members))))
            return list(member.predict(batch))
        preds = np.stack([m.predict(batch) for m in self.members()])
        return list(preds.mean(axis=0))


class PairwisePlanComparator:
    """Learning-to-rank plan comparator (Lero [79] / LEON [4]).

    A single tree-conv scorer ``s(plan)``; ``P(a better than b) =
    sigmoid(s(b) - s(a))`` (lower score = faster plan) trained with BCE on
    pairs of executed plans *for the same query*.  Candidate scores are the
    raw ``s`` values -- ranking by ``s`` is equivalent to counting pairwise
    wins under this model.
    """

    def __init__(
        self,
        featurizer: PlanFeaturizer,
        *,
        seed: int = 0,
    ) -> None:
        self.featurizer = featurizer
        self.net = TreeConvNet(
            featurizer.node_dim, conv_channels=(32, 32), head_hidden=(16,), seed=seed
        )
        self._rng = np.random.default_rng(seed + 5)
        # query_key -> list of (tree, latency), oldest first
        self._by_query: dict[str, list[tuple[tuple, float]]] = {}
        self._recorded: deque[str] = deque()  # each observation's key, oldest first
        self._trained = False

    @property
    def trained(self) -> bool:
        """Whether a retrain has fitted the scorer (else: default wins)."""
        return self._trained

    def observe(self, candidate: CandidatePlan, latency_ms: float) -> None:
        self.record(
            candidate.plan.query.to_sql(),
            _candidate_tree(candidate, self.featurizer),
            latency_ms,
        )

    def record(self, query_key: str, tree: tuple, latency_ms: float) -> None:
        """Keep one executed plan ``tree`` of query ``query_key``.

        Only the most recent ``OBSERVATION_WINDOW`` observations are kept,
        like Bao's: past it the oldest observation of all is dropped (a
        query left with none goes), so a retrain costs O(window)."""
        self._by_query.setdefault(query_key, []).append((tree, float(latency_ms)))
        self._recorded.append(query_key)
        if len(self._recorded) > OBSERVATION_WINDOW:
            oldest = self._recorded.popleft()
            entries = self._by_query[oldest]
            del entries[0]
            if not entries:
                del self._by_query[oldest]

    @staticmethod
    def _informative(latencies: Sequence[float]):
        """Index pairs ``(i, j)``, ``i < j``, whose latencies differ by >= 5%."""
        lat = np.asarray(latencies, dtype=float)
        i, j = np.triu_indices(len(lat), k=1)
        la, lb = lat[i], lat[j]
        keep = ~(np.abs(la - lb) / np.maximum(np.maximum(la, lb), 1e-9) < 0.05)
        return i[keep], j[keep]  # ties teach nothing

    @property
    def n_pairs(self) -> int:
        return sum(
            len(self._informative([lat for _, lat in entries])[0])
            for entries in self._by_query.values()
        )

    def _pairs(self) -> tuple[list[tuple], np.ndarray, np.ndarray, np.ndarray]:
        """``(trees, a, b, label)``: pair ``k`` is ``trees[a[k]]`` against
        ``trees[b[k]]`` with label = 1 when a is faster."""
        trees: list[tuple] = []
        a, b, labels = [np.empty(0, int)], [np.empty(0, int)], [np.empty(0)]
        for entries in self._by_query.values():
            lat = np.array([lat for _, lat in entries])
            i, j = self._informative(lat)
            a.append(i + len(trees))
            b.append(j + len(trees))
            labels.append((lat[i] < lat[j]).astype(float))
            trees.extend(tree for tree, _ in entries)
        return trees, np.concatenate(a), np.concatenate(b), np.concatenate(labels)

    def retrain(self) -> None:
        trees, a, b, labels = self._pairs()
        if len(labels) < 15:
            return
        corpus = PlanTreeCorpus.from_trees(trees)
        labels = labels.astype(self.net.flat_params.dtype)
        opt = Adam(lr=1e-3)
        params, grads = [self.net.flat_params], [self.net.flat_grads]
        orders, drawn = tee(shuffles(self._rng, len(labels), 40))
        # Trees interleaved a0, b0, a1, b1, ...: 16 pairs to a batch.
        interleaved = (np.stack([a[o], b[o]], axis=1).ravel() for o in drawn)
        for order, (_, batches) in zip(orders, corpus.plan(interleaved, 32)):
            y_epoch = labels[order]
            for k, batch in enumerate(batches):
                y_arr = y_epoch[16 * k : 16 * (k + 1)]
                scores = self.net.forward(batch)[:, 0]
                diff = scores[1::2] - scores[0::2]  # s(b) - s(a)
                prob = 1.0 / (1.0 + np.exp(-np.clip(diff, -60, 60)))
                d_diff = (prob - y_arr) / max(len(y_arr), 1)
                grad = np.zeros((batch.n_trees, 1), scores.dtype)
                grad[1::2, 0] = d_diff
                grad[0::2, 0] = -d_diff
                self.net._backward(batch, grad)
                opt.step(params, grads)
        self._trained = True

    def scores(self, candidates: Sequence[CandidatePlan]) -> list[float]:
        if not self._trained:
            return _default_scores(candidates)
        return list(self.net.predict(_decision_batch(candidates, self.featurizer)))

    def compare(self, plan_a, plan_b) -> float:
        """P(plan_a faster than plan_b); 0.5 before training."""
        if not self._trained:
            return 0.5
        trees = [
            plan_to_tree_arrays(plan_a, self.featurizer),
            plan_to_tree_arrays(plan_b, self.featurizer),
        ]
        s = self.net.predict(trees)
        return float(1.0 / (1.0 + math.exp(-(s[1] - s[0]))))


class EnsembleLatencyModel:
    """HyperQO-style multi-head predictor with variance filtering [72].

    Scores are mean predicted latency, but candidates whose across-member
    prediction variance exceeds ``variance_quantile`` of the candidate set
    are pushed behind the default plan (treated as too risky to pick).
    """

    variance_quantile = 0.7

    def __init__(self, featurizer: PlanFeaturizer, *, seed: int = 0) -> None:
        # four heads, one more than Bao's bootstrap ensemble
        self.inner = TreeConvLatencyModel(featurizer, 4, thompson=False, seed=seed)

    def observe(self, candidate: CandidatePlan, latency_ms: float) -> None:
        self.inner.observe(candidate, latency_ms)

    def retrain(self) -> None:
        self.inner.retrain()

    def scores(self, candidates: Sequence[CandidatePlan]) -> list[float]:
        if not self.inner.trained:
            return _default_scores(candidates)
        batch = _decision_batch(candidates, self.inner.featurizer)
        preds = np.stack([m.predict(batch) for m in self.inner.members()])
        means = preds.mean(axis=0)
        stds = preds.std(axis=0)
        cutoff = float(np.quantile(stds, self.variance_quantile))
        big = float(means.max()) + 1.0
        out = []
        for i, c in enumerate(candidates):
            if stds[i] > cutoff and c.source != "default":
                out.append(big + float(stds[i]))  # filtered: behind everything
            else:
                out.append(float(means[i]))
        return out


class PlanValueModel:
    """Neo's value network [38]: best achievable latency from a plan state.

    One tree-conv net over complete plans *and* partial left-deep prefixes
    (:func:`repro.costmodel.features.prefix_to_tree_arrays`), trained on
    ``log1p(latency)``.  It fills both framework slots: :meth:`value`
    guides :class:`repro.e2e.exploration.ValueSearchExploration`, and
    ``scores`` / ``observe`` / ``retrain`` make it the risk model refit
    from execution feedback.
    """

    def __init__(self, featurizer: PlanFeaturizer, *, seed: int = 0) -> None:
        self.featurizer = featurizer
        self.net = TreeConvNet(
            featurizer.node_dim, conv_channels=(32, 32), head_hidden=(16,), seed=seed
        )
        # Training states (several per observation); the fit uses all of them.
        self._trees: deque[tuple] = deque(maxlen=3000)
        self._targets: deque[float] = deque(maxlen=3000)
        self.trained = False

    def observe(self, candidate: CandidatePlan, latency_ms: float) -> None:
        self.add_target(candidate.plan, math.log1p(max(latency_ms, 0.0)))

    def add_target(self, plan: Plan, target: float) -> None:
        """Label ``plan`` and the connected left-deep prefixes of its leaf
        order with ``target``: partial states share the final value."""
        self._trees.append(plan_to_tree_arrays(plan, self.featurizer))
        self._targets.append(target)
        order = plan.join_order()
        for k in range(1, len(order)):
            prefix = order[:k]
            if not plan.query.subquery(prefix).is_connected():
                break
            self._trees.append(
                prefix_to_tree_arrays(plan.query, prefix, self.featurizer)
            )
            self._targets.append(target)

    def retrain(self) -> None:
        if len(self._targets) < 20:
            return
        self.net.fit(self._trees, np.array(self._targets), epochs=25, lr=1e-3)
        self.trained = True

    def value(self, query: Query, prefix: list[str]) -> float:
        """Predicted final ``log1p(latency)`` of the best completion."""
        tree = prefix_to_tree_arrays(query, prefix, self.featurizer)
        return float(self.net.predict([tree])[0])

    def scores(self, candidates: Sequence[CandidatePlan]) -> list[float]:
        if not self.trained:
            return _default_scores(candidates)
        return list(self.net.predict(_decision_batch(candidates, self.featurizer)))
