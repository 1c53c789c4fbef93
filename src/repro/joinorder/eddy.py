"""Eddy-RL adaptive join ordering [58].

Eddies route tuples through join operators adaptively; the RL formulation
learns Q-values for "which table to probe next" from the fan-outs observed
while tuples flow.  This implementation simulates that online signal: the
query executes in *chunks* of driver-table rows sampled from the real
data; each chunk reveals the true per-tuple fan-out of the chosen next
join, which updates a tabular Q-function (state = set of joined tables,
action = next table).  The final order is the greedy policy's order, so
the search can change its mind *mid-query* exactly as eddies do.
"""

from __future__ import annotations

import math

import numpy as np

from repro.engine.executor import CardinalityExecutor
from repro.joinorder.env import JoinOrderEnv, plan_from_order
from repro.optimizer.planner import Optimizer
from repro.sql.query import Query

__all__ = ["EddyJoinOrderSearch"]

#: probability of a random action per step (epsilon-greedy)
_EPSILON = 0.25


class EddyJoinOrderSearch:
    """Q-learning over observed per-chunk join fan-outs."""

    name = "eddy"
    n_chunks = 12  # chunks of the online phase, each re-deciding the routing
    alpha = 0.4  # Q-learning rate

    def __init__(self, optimizer: Optimizer, *, seed: int = 0) -> None:
        self.optimizer = optimizer
        self.executor = CardinalityExecutor(optimizer.db)
        self._rng = np.random.default_rng(seed)

    def _observed_fanout(
        self, query: Query, prefix: list[str], action: str
    ) -> float:
        """Observed growth factor when extending the prefix by ``action``.

        Measured on the true data (the executor's exact counts restricted
        to the relevant sub-queries) with chunk-level noise -- the signal a
        real eddy reads off its tuple stream.
        """
        before = self.executor.cardinality(query.subquery(prefix))
        after = self.executor.cardinality(query.subquery(prefix + [action]))
        fanout = after / max(before, 1)
        # Chunk sampling noise: a chunk of rows sees a noisy fan-out.
        noise = self._rng.normal(1.0, 0.15)
        return max(fanout * noise, 1e-9)

    def search(self, query: Query):
        """Adaptively learn an order while 'executing'; returns the plan."""
        if query.n_tables == 1:
            return self.optimizer.plan(query)
        q_table: dict[tuple[frozenset[str], str], float] = {}

        def q(state: frozenset[str], action: str) -> float:
            return q_table.get((state, action), 0.0)

        # Online phase: process chunks, each chunk re-decides the routing.
        for _ in range(self.n_chunks):
            env = JoinOrderEnv(query)
            # Driver table: the cheapest filtered table (as eddies start
            # from the scanned stream).
            first = min(
                query.tables,
                key=lambda t: self.executor.cardinality(query.subquery([t])),
            )
            env.step(first)
            while not env.done:
                actions = env.valid_actions()
                state = frozenset(env.prefix)
                if self._rng.random() < _EPSILON:
                    choice = actions[self._rng.integers(len(actions))]
                else:
                    choice = min(actions, key=lambda a: q(state, a))
                fanout = self._observed_fanout(query, list(env.prefix), choice)
                cost_signal = math.log1p(fanout)
                old = q(state, choice)
                q_table[(state, choice)] = old + self.alpha * (cost_signal - old)
                env.step(choice)

        # Final greedy order from the learned Q-values.
        env = JoinOrderEnv(query)
        first = min(
            query.tables,
            key=lambda t: self.executor.cardinality(query.subquery([t])),
        )
        env.step(first)
        while not env.done:
            actions = env.valid_actions()
            state = frozenset(env.prefix)
            env.step(min(actions, key=lambda a: q(state, a)))
        return plan_from_order(query, env.prefix, self.optimizer.coster)
