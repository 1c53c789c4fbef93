"""LEON [4]: ML-aided dynamic programming.

LEON keeps the native optimizer's DP enumeration but lets a learned
pairwise comparison model influence which sub-plans survive: each DP
subset keeps the top-``k`` candidates ranked by a blend of estimated cost
and the comparator's learned preference, and the final plan is the
comparator's favourite among the full-set candidates.  Periodically the
runner-up is executed instead of the favourite to keep generating labelled
pairs (LEON's exploration).
"""

from __future__ import annotations

from collections import deque
from itertools import combinations

from repro.core.framework import OBSERVATION_WINDOW, CandidatePlan, Experience
from repro.costmodel.features import PlanFeaturizer
from repro.e2e.risk_models import PairwisePlanComparator
from repro.engine.plans import Plan, PlanNode
from repro.optimizer.hints import HintSet
from repro.optimizer.planner import (
    Optimizer,
    _best_join,
    _best_scan,
    _join_conditions_between,
)
from repro.sql.query import Query

__all__ = ["LeonOptimizer"]


class LeonOptimizer:
    """DP enumeration with learned pairwise sub-plan ranking."""

    name = "leon"

    def __init__(
        self,
        optimizer: Optimizer,
        *,
        keep_k: int = 2,
        explore_every: int = 7,
        retrain_every: int = 25,
        shadow_executor=None,
        seed: int = 0,
    ) -> None:
        """``shadow_executor(plan) -> latency_ms``, when provided, lets
        LEON execute the DP runner-up out-of-band on explore queries so
        the comparator receives labelled same-query pairs (LEON's
        exploration executions)."""
        self.optimizer = optimizer
        self.keep_k = keep_k
        self.explore_every = explore_every
        self.retrain_every = retrain_every
        self.shadow_executor = shadow_executor
        featurizer = PlanFeaturizer(optimizer.db, coster=optimizer.coster)
        self.comparator = PairwisePlanComparator(featurizer, seed=seed)
        self.history: deque[Experience] = deque(maxlen=OBSERVATION_WINDOW)
        self._queries_seen = 0
        self._since_retrain = 0

    # -- DP with candidate lists ---------------------------------------------------

    def _rank(self, query: Query, entries: list[tuple[PlanNode, float]]):
        """Order candidate (node, cost) entries best-first.

        Without a trained comparator, rank purely by estimated cost; with
        one, rank by the comparator's score over the *completed fragments*
        (treated as plans of their sub-query), breaking ties by cost.
        """
        if not self.comparator._trained or len(entries) == 1:
            return sorted(entries, key=lambda e: e[1])
        plans = [Plan(query.subquery(node.tables), node) for node, _ in entries]
        scores = self.comparator.scores(
            [CandidatePlan(p, "dp") for p in plans]
        )
        order = sorted(range(len(entries)), key=lambda i: (scores[i], entries[i][1]))
        return [entries[i] for i in order]

    def _dp_candidates(self, query: Query) -> list[tuple[PlanNode, float]]:
        hints = HintSet.default()
        coster = self.optimizer.coster
        tables = list(query.tables)
        best: dict[frozenset[str], list[tuple[PlanNode, float]]] = {}
        card_of: dict[frozenset[str], float] = {}
        for t in tables:
            key = frozenset((t,))
            best[key] = [_best_scan(query, t, coster, hints)]
            card_of[key] = coster.subquery_cardinality(query, key)
        n = len(tables)
        for size in range(2, n + 1):
            for combo in combinations(tables, size):
                subset = frozenset(combo)
                sub = query.subquery(subset)
                if not sub.is_connected():
                    continue
                card_of[subset] = coster.subquery_cardinality(query, subset)
                entries: list[tuple[PlanNode, float]] = []
                members = sorted(subset)
                for r in range(1, size):
                    for left_combo in combinations(members[1:], r - 1):
                        left_set = frozenset((members[0],) + left_combo)
                        right_set = subset - left_set
                        if left_set not in best or right_set not in best:
                            continue
                        conditions = _join_conditions_between(
                            query, left_set, right_set
                        )
                        if not conditions:
                            continue
                        for lcand in best[left_set]:
                            for rcand in best[right_set]:
                                cand = _best_join(
                                    query, lcand, rcand, conditions,
                                    coster, hints, card_of,
                                )
                                if cand is not None:
                                    entries.append(cand)
                if entries:
                    # Dedup by signature, keep top-k by learned ranking.
                    seen: set[str] = set()
                    unique = []
                    for node, cost in sorted(entries, key=lambda e: e[1]):
                        sig = node.signature()
                        if sig not in seen:
                            seen.add(sig)
                            unique.append((node, cost))
                    best[subset] = self._rank(query, unique)[: self.keep_k]
        full = frozenset(tables)
        if full not in best:
            raise ValueError(f"no connected plan covers {query}")
        return best[full]

    # -- framework API ----------------------------------------------------------------

    def choose_plan(self, query: Query) -> CandidatePlan:
        self._queries_seen += 1
        if query.n_tables == 1:
            return CandidatePlan(self.optimizer.plan(query), "default")
        entries = self._dp_candidates(query)
        explore = (
            len(entries) > 1
            and self.explore_every
            and self._queries_seen % self.explore_every == 0
        )
        if explore and self.shadow_executor is not None:
            # Shadow-execute the runner-up so a labelled same-query pair
            # exists once the favourite's latency is fed back.
            runner_up = CandidatePlan(Plan(query, entries[1][0]), "shadow")
            self.comparator.observe(
                runner_up, self.shadow_executor(runner_up.plan)
            )
        pick = 1 if (explore and self.shadow_executor is None) else 0
        node, _ = entries[pick]
        source = "dp" if pick == 0 else "explore"
        return CandidatePlan(Plan(query, node), source)

    def record_feedback(
        self, query: Query, candidate: CandidatePlan, latency_ms: float
    ) -> None:
        self.history.append(Experience(query, candidate, latency_ms))
        self.comparator.observe(candidate, latency_ms)
        self._since_retrain += 1
        if self.retrain_every and self._since_retrain >= self.retrain_every:
            self.retrain()

    def retrain(self) -> None:
        self._since_retrain = 0
        self.comparator.retrain()
