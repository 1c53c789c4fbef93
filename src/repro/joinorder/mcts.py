"""SkinnerDB-style online join-order search via UCT [56].

SkinnerDB explores join orders *during* execution, giving each candidate
order a time slice and backing observed progress into a UCT tree.  Here
the execution feedback is the simulator's latency of the completed plan
(our time-slice equivalent); the search returns both the best plan found
and the regret trace the paper's analysis is about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.joinorder.env import JoinOrderEnv, plan_from_order
from repro.optimizer.planner import Optimizer
from repro.sql.query import Query

__all__ = ["MCTSJoinOrderSearch"]


@dataclass
class _UCTNode:
    prefix: tuple[str, ...]
    visits: int = 0
    total_reward: float = 0.0
    children: dict[str, "_UCTNode"] = field(default_factory=dict)

    @property
    def mean_reward(self) -> float:
        return self.total_reward / self.visits if self.visits else 0.0


class MCTSJoinOrderSearch:
    """UCT over left-deep join orders with execution feedback."""

    name = "mcts"
    exploration = 1.2  # UCT's exploration constant

    def __init__(self, optimizer: Optimizer, evaluate, *, seed: int = 0) -> None:
        """``evaluate(plan) -> latency_ms`` supplies execution feedback
        (pass ``simulator.latency`` for SkinnerDB-style online learning, or
        ``optimizer.cost`` for a cost-model-only variant)."""
        self.optimizer = optimizer
        self.evaluate = evaluate
        self._rng = np.random.default_rng(seed)

    def _rollout(self, env: JoinOrderEnv) -> list[str]:
        while not env.done:
            actions = env.valid_actions()
            env.step(actions[self._rng.integers(len(actions))])
        return env.prefix

    def search(
        self, query: Query, iterations: int = 60
    ) -> tuple[object, dict]:
        """Run UCT; returns (best plan, diagnostics).

        Diagnostics contain the per-iteration latencies (the regret trace)
        and the best latency found.
        """
        if query.n_tables == 1:
            plan = self.optimizer.plan(query)
            return plan, {"latencies": [self.evaluate(plan)], "best_latency": None}

        root = _UCTNode(prefix=())
        best_plan = None
        best_latency = math.inf
        latencies: list[float] = []
        # Latency normalization reference from one random rollout.
        env = JoinOrderEnv(query)
        ref_order = self._rollout(env)
        ref_plan = plan_from_order(query, ref_order, self.optimizer.coster)
        ref_latency = max(self.evaluate(ref_plan), 1e-9)

        for _ in range(iterations):
            env = JoinOrderEnv(query)
            node = root
            path = [root]
            # Selection / expansion.
            while not env.done:
                actions = env.valid_actions()
                unexplored = [a for a in actions if a not in node.children]
                if unexplored:
                    choice = unexplored[self._rng.integers(len(unexplored))]
                    child = _UCTNode(prefix=tuple(env.prefix) + (choice,))
                    node.children[choice] = child
                    env.step(choice)
                    path.append(child)
                    node = child
                    break
                # UCT selection.
                log_n = math.log(max(node.visits, 1))
                scores = [
                    node.children[a].mean_reward
                    + self.exploration
                    * math.sqrt(log_n / max(node.children[a].visits, 1))
                    for a in actions
                ]
                choice = actions[int(np.argmax(scores))]
                env.step(choice)
                node = node.children[choice]
                path.append(node)
            # Rollout to completion.
            order = self._rollout(env)
            plan = plan_from_order(query, order, self.optimizer.coster)
            latency = self.evaluate(plan)
            latencies.append(latency)
            if latency < best_latency:
                best_latency = latency
                best_plan = plan
            reward = -latency / ref_latency
            for n in path:
                n.visits += 1
                n.total_reward += reward

        assert best_plan is not None
        return best_plan, {"latencies": latencies, "best_latency": best_latency}
