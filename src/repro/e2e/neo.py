"""Neo [38]: a learned optimizer searching the plan space from scratch.

Neo replaces the whole optimizer: a tree-conv *value network* predicts the
best achievable final latency from a partial plan, a best-first search
expands the most promising partial plans, and execution feedback retrains
the network -- one model in both slots of the §2.2 framework.  Cold start
is handled by bootstrapping from *expert demonstrations*: the native
optimizer's plans and their latencies.
"""

from __future__ import annotations

from repro.core.framework import CandidatePlan, LearnedOptimizer, RetrainCadence
from repro.costmodel.features import PlanFeaturizer
from repro.e2e.exploration import SEARCH_BUDGET, ValueSearchExploration
from repro.e2e.risk_models import PlanValueModel
from repro.optimizer.planner import Optimizer
from repro.sql.query import Query

__all__ = ["NeoOptimizer"]


class _ValueSearchOptimizer(LearnedOptimizer):
    """The wiring Neo, Balsa and LOGER share: value-guided search whose
    value network is also the risk model refit from feedback."""

    name = "value_search"

    def __init__(
        self,
        optimizer: Optimizer,
        *,
        seed: int,
        beam_width: int,
        epsilon: float = 0.0,
    ) -> None:
        """``beam_width`` / ``epsilon``: the :class:`ValueSearchExploration`
        the subclass searches with."""
        featurizer = PlanFeaturizer(optimizer.db, coster=optimizer.coster)
        value_model = PlanValueModel(featurizer, seed=seed)
        super().__init__(
            exploration=ValueSearchExploration(
                optimizer,
                value_model,
                beam_width=beam_width,
                epsilon=epsilon,
                seed=seed,
            ),
            risk_model=value_model,
            name=self.name,
        )
        self.optimizer = optimizer

    def bootstrap_from_expert(
        self, queries: list[Query], executor, cadence: RetrainCadence
    ) -> None:
        """Seed the value network from native plans + their latencies.

        ``executor(plan) -> latency_ms`` runs a plan (pass
        ``simulator.latency``).  ``cadence``, the one that refits this model
        while it serves, ticks per demonstration and makes the closing
        refit: the network warm-starts, so the refits along the way count.
        """
        for q in queries:
            plan = self.optimizer.plan(q)
            self.record_feedback(q, CandidatePlan(plan, "expert"), executor(plan))
            cadence.tick()
        cadence.retrain()


class NeoOptimizer(_ValueSearchOptimizer):
    """Neo: best-first value-guided search, expert-bootstrapped.

    Call :meth:`bootstrap_from_expert` with an executed demonstration
    workload before relying on the search (otherwise it ships the native
    optimizer's plans until its first refit, which is also Neo's warm-up
    behaviour).  ``search_budget`` caps the best-first expansions before
    the greedy completion.
    """

    name = "neo"

    def __init__(self, optimizer: Optimizer, *, seed: int = 0, search_budget: int = SEARCH_BUDGET) -> None:
        super().__init__(optimizer, seed=seed, beam_width=0)
        self.exploration.search_budget = search_budget
