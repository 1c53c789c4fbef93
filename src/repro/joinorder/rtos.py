"""RTOS-style join-order search with tree-structured states [73].

RTOS's advance over DQ/ReJoin is representing the partial join *tree* with
a recursive neural encoder instead of flat set one-hots.  Here the state
value ``V(partial plan)`` is a tree-convolution network over the partial
left-deep tree (plus the not-yet-joined scans); actions are scored by the
value of the state they lead to, trained by Monte-Carlo regression on
final plan costs.
"""

from __future__ import annotations

import math

import numpy as np

from repro.costmodel.features import PlanFeaturizer, prefix_to_tree_arrays
from repro.joinorder.env import JoinOrderEnv, plan_from_order
from repro.ml.treeconv import TreeConvNet
from repro.optimizer.planner import Optimizer
from repro.sql.query import Query

__all__ = ["RTOSJoinOrderSearch"]

#: probability of a random action per step (epsilon-greedy)
_EPSILON = 0.3


class RTOSJoinOrderSearch:
    """Tree-structured-state join-order search (RTOS-lite)."""

    name = "rtos"

    def __init__(self, optimizer: Optimizer, seed: int = 0) -> None:
        self.optimizer = optimizer
        self.coster = optimizer.coster
        self.featurizer = PlanFeaturizer(optimizer.db, coster=optimizer.coster)
        self._rng = np.random.default_rng(seed)
        self._net = TreeConvNet(
            self.featurizer.node_dim, conv_channels=(32, 32), head_hidden=(16,), seed=seed
        )
        self._buffer: list[tuple] = []
        self._targets: list[float] = []
        self._episodes = 0
        self._trained = False

    # -- training ------------------------------------------------------------------

    def train_episode(self, query: Query) -> float:
        env = JoinOrderEnv(query)
        states = []
        while not env.done:
            actions = env.valid_actions()
            if self._rng.random() < _EPSILON or not self._trained:
                choice = actions[self._rng.integers(len(actions))]
            else:
                values = [self._value(query, env.prefix + [a]) for a in actions]
                choice = actions[int(np.argmax(values))]
            env.step(choice)
            states.append(prefix_to_tree_arrays(query, env.prefix, self.featurizer))
        plan = plan_from_order(query, env.prefix, self.coster)
        reward = -math.log1p(max(self.optimizer.cost(plan), 0.0))
        for s in states:
            self._buffer.append(s)
            self._targets.append(reward)
        self._episodes += 1
        if self._episodes % 40 == 0:
            self._refit()
        return reward

    def train(self, queries: list[Query], episodes_per_query: int = 6) -> None:
        for _ in range(episodes_per_query):
            for q in queries:
                if q.n_tables >= 2:
                    self.train_episode(q)
        self._refit()

    def _refit(self) -> None:
        if len(self._targets) < 20:
            return
        trees = self._buffer[-2000:]
        y = np.array(self._targets[-2000:])
        self._net.fit(trees, y, epochs=25, lr=1e-3)
        self._trained = True

    def _value(self, query: Query, prefix: list[str]) -> float:
        tree = prefix_to_tree_arrays(query, prefix, self.featurizer)
        return float(self._net.predict([tree])[0])

    # -- inference -----------------------------------------------------------------

    def search(self, query: Query):
        env = JoinOrderEnv(query)
        while not env.done:
            actions = env.valid_actions()
            if self._trained:
                values = [self._value(query, env.prefix + [a]) for a in actions]
                choice = actions[int(np.argmax(values))]
            else:
                choice = actions[0]
            env.step(choice)
        return plan_from_order(query, env.prefix, self.coster)
