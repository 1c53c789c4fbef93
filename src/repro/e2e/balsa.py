"""Balsa [69]: learning a query optimizer *without* expert demonstrations.

Balsa's difference from Neo is the bootstrap: instead of imitating the
native optimizer's executed plans, it first trains its value network in
*simulation* -- against the (cheap, imperfect) cost model -- and only then
fine-tunes on real execution latencies.  Search is beam search rather than
best-first.  Untrained, it ships the native plan: executing a random plan
on a production system is not a realistic deployment mode.
"""

from __future__ import annotations

import math

import numpy as np

from repro.e2e.neo import _ValueSearchOptimizer
from repro.joinorder.env import JoinOrderEnv, plan_from_order
from repro.optimizer.planner import Optimizer
from repro.sql.query import Query

__all__ = ["BalsaOptimizer"]


class BalsaOptimizer(_ValueSearchOptimizer):
    """Balsa: beam search + sim-to-real bootstrapping."""

    name = "balsa"

    def __init__(self, optimizer: Optimizer, *, seed: int = 0) -> None:
        """A beam of 4."""
        super().__init__(optimizer, seed=seed, beam_width=4)
        self._rng = np.random.default_rng(seed + 31)

    def bootstrap_from_simulation(
        self, queries: list[Query], episodes_per_query: int = 4
    ) -> None:
        """Phase 1: train the value network against the cost model only.

        Random join orders are costed (never executed); the resulting value
        network is wrong in exactly the ways the cost model is wrong, which
        the real-execution fine-tuning phase then corrects -- Balsa's
        sim-to-real recipe.
        """
        for _ in range(episodes_per_query):
            for query in queries:
                if query.n_tables < 2:
                    continue
                env = JoinOrderEnv(query)
                while not env.done:
                    actions = env.valid_actions()
                    env.step(actions[self._rng.integers(len(actions))])
                plan = plan_from_order(query, env.prefix, self.optimizer.coster)
                pseudo_latency = max(self.optimizer.cost(plan), 0.0) * 0.05
                self.risk_model.add_target(plan, math.log1p(pseudo_latency))
        self.retrain()
