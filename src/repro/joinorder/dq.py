"""DQ / ReJoin-style offline RL join-order search [15, 24].

A neural state-action value function is trained with delayed episode
rewards (ReJoin's convention: every step of an episode receives the final
plan's negative log cost), epsilon-greedy exploration and a replay buffer
refit periodically.  After training, :meth:`search` runs the greedy policy
to produce a plan.

Features: joined-set one-hot + candidate-table one-hot + progress + log
estimated cardinality of the current intermediate -- the "simple neural
architecture" the tutorial notes limits these early methods, preserved
deliberately so RTOS's richer representation has something to beat.
"""

from __future__ import annotations

import math

import numpy as np

from repro.joinorder.env import JoinOrderEnv, plan_from_order
from repro.ml.nn import MLP
from repro.optimizer.cost import PlanCoster
from repro.optimizer.planner import Optimizer
from repro.sql.query import Query

__all__ = ["DQJoinOrderSearch"]

#: probability of a random action per step (epsilon-greedy)
_EPSILON = 0.3


class DQJoinOrderSearch:
    """Q-learning join-order search with an MLP value function."""

    name = "dq"

    def __init__(self, optimizer: Optimizer, seed: int = 0) -> None:
        self.optimizer = optimizer
        self.coster: PlanCoster = optimizer.coster
        self.tables = list(optimizer.db.table_names)
        self._pos = {t: i for i, t in enumerate(self.tables)}
        self._rng = np.random.default_rng(seed)
        dim = 2 * len(self.tables) + 2
        self._net = MLP(dim, (64,), seed=seed)
        self._buffer_x: list[np.ndarray] = []
        self._buffer_y: list[float] = []
        self._episodes = 0
        self._trained = False

    # -- features --------------------------------------------------------------

    def _features(self, query: Query, prefix: list[str], action: str) -> np.ndarray:
        joined = np.zeros(len(self.tables))
        for t in prefix:
            joined[self._pos[t]] = 1.0
        act = np.zeros(len(self.tables))
        act[self._pos[action]] = 1.0
        if prefix:
            card = self.coster.subquery_cardinality(query, frozenset(prefix))
        else:
            card = 0.0
        extra = np.array(
            [len(prefix) / max(len(query.tables), 1), math.log1p(card) / 20.0]
        )
        return np.concatenate([joined, act, extra])

    def _q(self, query: Query, prefix: list[str], actions: list[str]) -> np.ndarray:
        x = np.stack([self._features(query, prefix, a) for a in actions])
        if not self._trained:
            return self._rng.random(len(actions))
        return np.atleast_1d(self._net.predict(x))

    # -- training --------------------------------------------------------------------

    def _episode_reward(self, query: Query, order: list[str]) -> float:
        plan = plan_from_order(query, order, self.coster)
        return -math.log1p(max(self.optimizer.cost(plan), 0.0))

    def train_episode(self, query: Query) -> float:
        """One epsilon-greedy episode; returns the episode reward."""
        env = JoinOrderEnv(query)
        steps: list[np.ndarray] = []
        while not env.done:
            actions = env.valid_actions()
            if self._rng.random() < _EPSILON or not self._trained:
                choice = actions[self._rng.integers(len(actions))]
            else:
                qvals = self._q(query, env.prefix, actions)
                choice = actions[int(qvals.argmax())]
            steps.append(self._features(query, env.prefix, choice))
            env.step(choice)
        reward = self._episode_reward(query, env.prefix)
        for x in steps:
            self._buffer_x.append(x)
            self._buffer_y.append(reward)
        self._episodes += 1
        if self._episodes % 40 == 0:
            self._refit()
        return reward

    def train(self, queries: list[Query], episodes_per_query: int = 8) -> None:
        for _ in range(episodes_per_query):
            for q in queries:
                if q.n_tables >= 2:
                    self.train_episode(q)
        self._refit()

    def _refit(self) -> None:
        if len(self._buffer_y) < 20:
            return
        x = np.stack(self._buffer_x[-4000:])
        y = np.array(self._buffer_y[-4000:])
        self._net.fit(x, y, epochs=40, lr=2e-3)
        self._trained = True

    # -- inference -------------------------------------------------------------------

    def search(self, query: Query):
        """Greedy-policy plan for the query."""
        env = JoinOrderEnv(query)
        while not env.done:
            actions = env.valid_actions()
            qvals = self._q(query, env.prefix, actions)
            env.step(actions[int(qvals.argmax())])
        return plan_from_order(query, env.prefix, self.coster)
