"""Plan exploration strategies (the first half of the §2.2 framework).

The three §2.2 categories: *steering* the native optimizer
(:class:`HintSetExploration`, :class:`CardinalityScalingExploration`,
:class:`LeadingTableExploration` -- several candidates for the risk model
to choose among), learned search *from scratch*
(:class:`ValueSearchExploration`) and ML-*aided* enumeration
(:class:`TopKDPExploration`).  The last two consult their model while
exploring, so they hand the risk model the one plan that search produced.
"""

from __future__ import annotations

import heapq
from itertools import count
from operator import itemgetter

import numpy as np

from repro.core.framework import CandidatePlan
from repro.core.interfaces import ScaledCardinalities
from repro.e2e.risk_models import PairwisePlanComparator, PlanValueModel
from repro.engine.plans import Plan, PlanNode
from repro.joinorder.env import JoinOrderEnv, plan_from_order
from repro.optimizer.hints import HintSet
from repro.optimizer.planner import Optimizer, _best_join, _best_scan
from repro.sql.joingraph import join_graph
from repro.sql.query import Query

__all__ = [
    "HintSetExploration",
    "CardinalityScalingExploration",
    "LeadingTableExploration",
    "ValueSearchExploration",
    "TopKDPExploration",
]


def _dedup(candidates: list[CandidatePlan]) -> list[CandidatePlan]:
    seen: set[str] = set()
    out = []
    for c in candidates:
        sig = c.plan.signature()
        if sig not in seen:
            seen.add(sig)
            out.append(c)
    return out


class HintSetExploration:
    """Bao's strategy [37]: steer the native optimizer with hint-set arms."""

    def __init__(self, optimizer: Optimizer, arms: list[HintSet] | None = None) -> None:
        self.optimizer = optimizer
        self.arms = arms if arms is not None else HintSet.bao_arms()
        if not self.arms:
            raise ValueError("need at least one hint-set arm")

    def candidates(self, query: Query) -> list[CandidatePlan]:
        plans = self.optimizer.plan_arms(query, self.arms)
        return _dedup(
            [
                CandidatePlan(plan=plan, source="default" if i == 0 else arm.name())
                for i, (arm, plan) in enumerate(zip(self.arms, plans))
            ]
        )


#: Lero's cardinality scaling factors [79]; ``1.0`` is first, so the native
#: plan survives deduplication as the ``"default"`` candidate (warm-up
#: safety depends on it)
LERO_FACTORS = (1.0, 0.01, 0.1, 10.0, 100.0)


class CardinalityScalingExploration:
    """Lero's strategy [79]: scale estimated cardinalities by ``LERO_FACTORS``."""

    def __init__(self, optimizer: Optimizer) -> None:
        self.optimizer = optimizer
        self.factors = LERO_FACTORS

    def candidates(self, query: Query) -> list[CandidatePlan]:
        out = []
        for f in self.factors:
            if f == 1.0:
                opt = self.optimizer
                source = "default"
            else:
                opt = self.optimizer.with_estimator(
                    ScaledCardinalities(self.optimizer.estimator, f)
                )
                source = f"scale={f:g}"
            out.append(CandidatePlan(plan=opt.plan(query), source=source))
        return _dedup(out)


class LeadingTableExploration:
    """HyperQO's strategy [72]: leading hints forcing the first table."""

    max_leading = 6  # tables tried as the leading one

    def __init__(self, optimizer: Optimizer) -> None:
        self.optimizer = optimizer

    def candidates(self, query: Query) -> list[CandidatePlan]:
        out = [CandidatePlan(plan=self.optimizer.plan(query), source="default")]
        if query.n_tables >= 2:
            for table in query.tables[: self.max_leading]:
                plan = self._leading_plan(query, table)
                if plan is not None:
                    out.append(CandidatePlan(plan=plan, source=f"leading={table}"))
        return _dedup(out)

    def _leading_plan(self, query: Query, leading: str) -> Plan | None:
        """Greedy left-deep plan forced to start at ``leading``."""
        coster = self.optimizer.coster
        order = [leading]
        remaining = set(query.tables) - {leading}
        adj: dict[str, set[str]] = {t: set() for t in query.tables}
        for j in query.joins:
            adj[j.left.table].add(j.right.table)
            adj[j.right.table].add(j.left.table)
        while remaining:
            frontier = sorted(
                t for t in remaining if adj[t] & set(order)
            )
            if not frontier:
                return None
            # Greedy: next table minimizing the intermediate estimate.
            best = min(
                frontier,
                key=lambda t: coster.subquery_cardinality(
                    query, frozenset(order + [t])
                ),
            )
            order.append(best)
            remaining.discard(best)
        return plan_from_order(query, order, coster)


#: the best-first search's expansions before its greedy completion (Neo's
#: search; a beam search never reads it)
SEARCH_BUDGET = 80


class ValueSearchExploration:
    """Neo / Balsa / LOGER's strategy [38, 69, 3]: search left-deep join
    orders guided by a value network.

    ``beam_width == 0`` is Neo's best-first search (at most
    ``search_budget`` expansions, then a greedy completion); ``> 0`` is
    beam search, Balsa's at ``epsilon == 0`` and LOGER's epsilon-beam
    otherwise (with probability ``epsilon`` per level the worst kept entry
    gives way to a random non-kept one, so the model keeps seeing plans
    outside its current preference).  Until ``value_model`` is trained the
    native plan is the only candidate.
    """

    def __init__(
        self,
        optimizer: Optimizer,
        value_model: PlanValueModel,
        *,
        beam_width: int = 0,
        epsilon: float = 0.0,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= epsilon < 1.0:
            raise ValueError("epsilon must be in [0, 1)")
        self.optimizer = optimizer
        self.value_model = value_model
        self.beam_width = beam_width
        self.epsilon = epsilon
        self.search_budget = SEARCH_BUDGET
        self._eps_rng = np.random.default_rng(seed + 77)

    def candidates(self, query: Query) -> list[CandidatePlan]:
        if not self.value_model.trained:
            # Cold start: the expert demonstration (native plan).
            return [CandidatePlan(self.optimizer.plan(query), "default")]
        if query.n_tables == 1:
            return [CandidatePlan(self.optimizer.plan(query), "search")]
        order = self._beam(query) if self.beam_width > 0 else self._best_first(query)
        plan = plan_from_order(query, order, self.optimizer.coster)
        return [CandidatePlan(plan, "search")]

    def _best_first(self, query: Query) -> list[str]:
        value = self.value_model.value
        counter = count()  # heap tie-break: insertion order
        heap = [(value(query, [t]), next(counter), [t]) for t in query.tables]
        heapq.heapify(heap)
        env = JoinOrderEnv(query)
        for _ in range(self.search_budget):
            _, _, prefix = heapq.heappop(heap)
            if len(prefix) == len(query.tables):
                return prefix  # best-first: first completed state is the answer
            env.prefix = list(prefix)
            for action in env.valid_actions():
                nxt = prefix + [action]
                heapq.heappush(heap, (value(query, nxt), next(counter), nxt))
        # Budget exhausted: greedily complete the most promising prefix.
        env.prefix = list(heap[0][2])
        while not env.done:
            env.step(
                min(env.valid_actions(), key=lambda a: value(query, env.prefix + [a]))
            )
        return env.prefix

    def _beam(self, query: Query) -> list[str]:
        value = self.value_model.value
        beam = sorted(((value(query, [t]), [t]) for t in query.tables), key=itemgetter(0))
        beam = beam[: self.beam_width]
        env = JoinOrderEnv(query)
        while len(beam[0][1]) < len(query.tables):
            expanded = []
            for _, prefix in beam:
                env.prefix = list(prefix)
                for action in env.valid_actions():
                    nxt = prefix + [action]
                    expanded.append((value(query, nxt), nxt))
            expanded.sort(key=itemgetter(0))
            beam, rest = expanded[: self.beam_width], expanded[self.beam_width :]
            if self.epsilon and rest and self._eps_rng.random() < self.epsilon:
                beam[-1] = rest[int(self._eps_rng.integers(len(rest)))]
        return beam[0][1]


class TopKDPExploration:
    """LEON's strategy [4]: the native DP keeping the top two sub-plans
    per subset, ranked by the comparator once it is trained.

    Every 7th query the full-set runner-up is executed too, out-of-band
    through ``shadow_executor(plan) -> latency_ms``, so the comparator
    receives labelled same-query pairs once the favourite's latency is fed
    back.  The favourite (source ``"dp"``) is returned as the single
    candidate: the comparator already ranked the survivors inside the DP.
    """

    def __init__(
        self,
        optimizer: Optimizer,
        comparator: PairwisePlanComparator,
        *,
        shadow_executor,
    ) -> None:
        self.optimizer = optimizer
        self.comparator = comparator
        self.shadow_executor = shadow_executor
        self._queries_seen = 0

    def _rank(self, query: Query, entries: list[tuple[PlanNode, float]]):
        """Order candidate (node, cost) entries best-first.

        Without a trained comparator, rank purely by estimated cost; with
        one, rank by the comparator's score over the *completed fragments*
        (treated as plans of their sub-query), breaking ties by cost.
        """
        if not self.comparator.trained or len(entries) == 1:
            return sorted(entries, key=lambda e: e[1])
        plans = [Plan(query.subquery(node.tables), node) for node, _ in entries]
        scores = self.comparator.scores(
            [CandidatePlan(p, "dp") for p in plans]
        )
        order = sorted(range(len(entries)), key=lambda i: (scores[i], entries[i][1]))
        return [entries[i] for i in order]

    def dp_candidates(self, query: Query) -> list[tuple[PlanNode, float]]:
        """The up-to-two surviving full-set ``(root, cost)`` entries."""
        hints = HintSet.default()
        coster = self.optimizer.coster
        best: dict[frozenset[str], list[tuple[PlanNode, float]]] = {}
        card_of: dict[frozenset[str], float] = {}
        graph = join_graph(query)
        for subset in graph.subsets:
            if len(subset) == 1:
                (table,) = subset
                best[subset] = [_best_scan(query, table, coster, hints, coster.planning_tag())]
            card_of[subset] = coster.subquery_cardinality(query, subset)
            # A single table has no partition: the loop below does not run.
            entries: list[tuple[PlanNode, float]] = []
            for left_set, right_set, conditions in graph.partitions[subset]:
                for lcand in best[left_set]:
                    for rcand in best[right_set]:
                        cand = _best_join(lcand, rcand, conditions, coster, hints, card_of)
                        if cand is not None:
                            entries.append(cand)
            if entries:
                # Dedup by signature, keep the top two by learned ranking.
                seen: set[str] = set()
                unique = []
                for node, cost in sorted(entries, key=lambda e: e[1]):
                    sig = node.signature()
                    if sig not in seen:
                        seen.add(sig)
                        unique.append((node, cost))
                best[subset] = self._rank(query, unique)[:2]
        full = frozenset(query.tables)
        if full not in best:
            raise ValueError(f"no connected plan covers {query}")
        return best[full]

    def candidates(self, query: Query) -> list[CandidatePlan]:
        self._queries_seen += 1
        if query.n_tables == 1:
            return [CandidatePlan(self.optimizer.plan(query), "default")]
        entries = self.dp_candidates(query)
        if len(entries) > 1 and self._queries_seen % 7 == 0:
            runner_up = CandidatePlan(Plan(query, entries[1][0]), "shadow")
            self.comparator.observe(
                runner_up, self.shadow_executor(runner_up.plan)
            )
        return [CandidatePlan(Plan(query, entries[0][0]), "dp")]
