"""Neo [38]: a learned optimizer searching the plan space from scratch.

Neo replaces the whole optimizer: a tree-conv *value network* predicts the
best achievable final latency from a partial plan, a best-first search
expands the most promising partial plans, and execution feedback retrains
the network.  Cold start is handled by bootstrapping from *expert
demonstrations* -- the native optimizer's plans and their latencies.

:class:`_ValueGuidedOptimizer` holds the machinery shared with Balsa
(which differs only in bootstrap source and search flavour).
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque

import numpy as np

from repro.core.framework import OBSERVATION_WINDOW, CandidatePlan, Experience
from repro.costmodel.features import PlanFeaturizer, plan_to_tree_arrays
from repro.engine.plans import JoinNode, Plan, PlanNode, ScanNode
from repro.joinorder.env import JoinOrderEnv, plan_from_order
from repro.ml.treeconv import TreeConvNet
from repro.optimizer.planner import Optimizer, _join_conditions_between
from repro.sql.query import Query

__all__ = ["NeoOptimizer"]


class _ValueGuidedOptimizer:
    """Shared value-network search machinery for Neo and Balsa."""

    name = "value_guided"

    def __init__(
        self,
        optimizer: Optimizer,
        *,
        retrain_every: int = 25,
        search_budget: int = 80,
        beam_width: int = 0,
        seed: int = 0,
    ) -> None:
        self.optimizer = optimizer
        self.featurizer = PlanFeaturizer(optimizer.db, coster=optimizer.coster)
        self.net = TreeConvNet(
            self.featurizer.node_dim,
            conv_channels=(32, 32),
            head_hidden=(16,),
            seed=seed,
        )
        self.retrain_every = retrain_every
        self.search_budget = search_budget
        self.beam_width = beam_width  # 0 = best-first (Neo), >0 = beam (Balsa)
        self.history: deque[Experience] = deque(maxlen=OBSERVATION_WINDOW)
        # Training states (several per observation); the fit uses all of them.
        self._trees: deque[tuple] = deque(maxlen=3000)
        self._targets: deque[float] = deque(maxlen=3000)
        self._trained = False
        self._since_retrain = 0
        self._counter = itertools.count()

    # -- partial-plan encoding -----------------------------------------------------

    def _partial_tree(self, query: Query, prefix: list[str]):
        node: PlanNode = ScanNode(
            table=prefix[0], predicates=query.predicates_on(prefix[0])
        )
        for t in prefix[1:]:
            right = ScanNode(table=t, predicates=query.predicates_on(t))
            conditions = _join_conditions_between(query, node.tables, right.tables)
            node = JoinNode(node, right, conditions=conditions)
        feats, left, right_idx = [], [], []

        def visit(n: PlanNode) -> int:
            my = len(feats)
            sub = query.subquery(n.tables)
            est = max(self.optimizer.estimator.estimate(sub), 0.0)
            vec = np.zeros(self.featurizer.node_dim)
            n_ops = 5
            if isinstance(n, ScanNode):
                vec[0] = 1.0
                vec[n_ops + self.featurizer.tables.index(n.table)] = 1.0
                preds = len(n.predicates) / 4.0
            else:
                vec[2] = 1.0
                preds = 0.0
            base = n_ops + len(self.featurizer.tables)
            vec[base] = math.log1p(est) / 20.0
            vec[base + 1] = len(n.tables) / max(len(self.featurizer.tables), 1)
            vec[base + 2] = preds
            feats.append(vec)
            left.append(-1)
            right_idx.append(-1)
            if isinstance(n, JoinNode):
                left[my] = visit(n.left)
                right_idx[my] = visit(n.right)
            return my

        visit(node)
        return np.stack(feats), np.array(left), np.array(right_idx)

    def _value(self, query: Query, prefix: list[str]) -> float:
        return float(self.net.predict([self._partial_tree(query, prefix)])[0])

    # -- search ----------------------------------------------------------------------

    def _search_plan(self, query: Query) -> Plan:
        if query.n_tables == 1:
            return self.optimizer.plan(query)
        if self.beam_width > 0:
            order = self._beam_search(query)
        else:
            order = self._best_first(query)
        return plan_from_order(query, order, self.optimizer.coster)

    def _best_first(self, query: Query) -> list[str]:
        """Neo's best-first search over left-deep prefixes."""
        heap: list[tuple[float, int, list[str]]] = []
        for t in query.tables:
            heapq.heappush(
                heap, (self._value(query, [t]), next(self._counter), [t])
            )
        expansions = 0
        best_complete: tuple[float, list[str]] | None = None
        env_proto = JoinOrderEnv(query)
        while heap and expansions < self.search_budget:
            value, _, prefix = heapq.heappop(heap)
            if len(prefix) == len(query.tables):
                if best_complete is None or value < best_complete[0]:
                    best_complete = (value, prefix)
                break  # best-first: first completed state is the answer
            expansions += 1
            env_proto.prefix = list(prefix)
            for action in env_proto.valid_actions():
                nxt = prefix + [action]
                heapq.heappush(
                    heap, (self._value(query, nxt), next(self._counter), nxt)
                )
        if best_complete is not None:
            return best_complete[1]
        # Budget exhausted: greedily complete the most promising prefix.
        prefix = heap[0][2] if heap else [query.tables[0]]
        env_proto.prefix = list(prefix)
        while len(env_proto.prefix) < len(query.tables):
            actions = env_proto.valid_actions()
            best = min(actions, key=lambda a: self._value(query, env_proto.prefix + [a]))
            env_proto.step(best)
        return env_proto.prefix

    def _beam_search(self, query: Query) -> list[str]:
        """Balsa's beam search over left-deep prefixes."""
        beam: list[tuple[float, list[str]]] = [
            (self._value(query, [t]), [t]) for t in query.tables
        ]
        beam.sort(key=lambda e: e[0])
        beam = beam[: self.beam_width]
        env = JoinOrderEnv(query)
        while len(beam[0][1]) < len(query.tables):
            expanded: list[tuple[float, list[str]]] = []
            for _, prefix in beam:
                env.prefix = list(prefix)
                for action in env.valid_actions():
                    nxt = prefix + [action]
                    expanded.append((self._value(query, nxt), nxt))
            expanded.sort(key=lambda e: e[0])
            beam = expanded[: self.beam_width]
        return beam[0][1]

    # -- framework API -----------------------------------------------------------------

    def choose_plan(self, query: Query) -> CandidatePlan:
        if not self._trained:
            # Cold start: expert demonstration (native plan).
            return CandidatePlan(plan=self.optimizer.plan(query), source="default")
        return CandidatePlan(plan=self._search_plan(query), source="search")

    def record_feedback(
        self, query: Query, candidate: CandidatePlan, latency_ms: float
    ) -> None:
        self.history.append(Experience(query, candidate, latency_ms))
        target = math.log1p(max(latency_ms, 0.0))
        plan = candidate.plan
        self._trees.append(plan_to_tree_arrays(plan, self.featurizer))
        self._targets.append(target)
        # Partial states along the plan's leaf order share the final value.
        order = plan.join_order()
        for k in range(1, len(order)):
            prefix = order[:k]
            if not query.subquery(prefix).is_connected():
                break
            self._trees.append(self._partial_tree(query, prefix))
            self._targets.append(target)
        self._since_retrain += 1
        if self.retrain_every and self._since_retrain >= self.retrain_every:
            self.retrain()

    def retrain(self) -> None:
        self._since_retrain = 0
        if len(self._targets) < 20:
            return
        self.net.fit(self._trees, np.array(self._targets), epochs=25, lr=1e-3)
        self._trained = True


class NeoOptimizer(_ValueGuidedOptimizer):
    """Neo: best-first value-guided search, expert-bootstrapped.

    Call :meth:`bootstrap_from_expert` with an executed demonstration
    workload before relying on the search (otherwise the first
    ``retrain_every`` queries simply use the native optimizer, which is
    also Neo's warm-up behaviour).
    """

    name = "neo"

    def __init__(self, optimizer: Optimizer, **kwargs) -> None:
        super().__init__(optimizer, beam_width=0, **kwargs)

    def bootstrap_from_expert(
        self, queries: list[Query], executor
    ) -> None:
        """Seed the value network from native plans + their latencies.

        ``executor(plan) -> latency_ms`` runs a plan (pass
        ``simulator.latency``).
        """
        for q in queries:
            plan = self.optimizer.plan(q)
            latency = executor(plan)
            self.record_feedback(q, CandidatePlan(plan, "expert"), latency)
        self.retrain()
