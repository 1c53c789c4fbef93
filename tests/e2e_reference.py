"""The hand-rolled learned-optimizer loops, kept as the reference.

These are ``_ValueGuidedOptimizer`` / ``NeoOptimizer`` / ``BalsaOptimizer``
/ ``LogerOptimizer`` / ``LeonOptimizer`` (``repro/e2e``), ``_SteeringDriverBase``
+ ``BaoDriver`` + ``LeroDriver`` (``repro/pilotscope/drivers.py``) and
``RTOSJoinOrderSearch._partial_tree`` / ``_node_vec``
(``repro/joinorder/rtos.py``) as they stood before they became
``LearnedOptimizer(exploration, risk_model)``: each with its own
``history`` + ``_since_retrain`` + observe -> retrain-every-N loop, two
beam searches, two partial-plan encoders reading the raw estimator.  The
framework instances must reproduce them decision for decision and weight
for weight; ``tests/test_framework_instances.py`` asserts that.  Do not
optimise this file.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from itertools import combinations
from typing import NamedTuple

import numpy as np

from repro.core.framework import OBSERVATION_WINDOW, CandidatePlan
from repro.costmodel.features import PlanFeaturizer, plan_to_tree_arrays
from repro.e2e.risk_models import PairwisePlanComparator, TreeConvLatencyModel
from repro.engine.plans import JoinNode, Plan, PlanNode, ScanNode
from repro.engine.simulator import ExecutionResult
from repro.joinorder.env import JoinOrderEnv, plan_from_order
from repro.ml.treeconv import TreeConvNet
from repro.optimizer.hints import HintSet
from repro.optimizer.planner import (
    Optimizer,
    _best_join,
    _best_scan,
    _join_conditions_between,
)
from repro.pilotscope.driver import Driver
from repro.sql.query import Query

__all__ = [
    "NeoOptimizer",
    "BalsaOptimizer",
    "LogerOptimizer",
    "LeonOptimizer",
    "BaoDriver",
    "LeroDriver",
    "RTOSPartialTree",
]


class Experience(NamedTuple):
    """One executed (query, plan, latency) triple, as the old loops kept it."""

    query: Query
    candidate: CandidatePlan
    latency_ms: float


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


class BalsaOptimizer(_ValueGuidedOptimizer):
    """Balsa: beam search + sim-to-real bootstrapping."""

    name = "balsa"

    def __init__(
        self, optimizer: Optimizer, *, beam_width: int = 4, seed: int = 0, **kwargs
    ) -> None:
        super().__init__(optimizer, beam_width=beam_width, seed=seed, **kwargs)
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
                target = math.log1p(pseudo_latency)
                self._trees.append(plan_to_tree_arrays(plan, self.featurizer))
                self._targets.append(target)
                order = plan.join_order()
                for k in range(1, len(order)):
                    prefix = order[:k]
                    if not query.subquery(prefix).is_connected():
                        break
                    self._trees.append(self._partial_tree(query, prefix))
                    self._targets.append(target)
        self.retrain()

    def choose_plan(self, query: Query) -> CandidatePlan:
        if not self._trained:
            # Balsa has no expert: before any training it can only guess.
            # We keep the safe default (native plan) as its untrained
            # fallback, since executing a random plan on a production
            # system is not a realistic deployment mode.
            return CandidatePlan(plan=self.optimizer.plan(query), source="default")
        return CandidatePlan(plan=self._search_plan(query), source="search")


class LogerOptimizer(_ValueGuidedOptimizer):
    """Value-guided epsilon-beam search optimizer (LOGER-lite)."""

    name = "loger"

    def __init__(
        self,
        optimizer: Optimizer,
        *,
        beam_width: int = 4,
        epsilon: float = 0.25,
        seed: int = 0,
        **kwargs,
    ) -> None:
        super().__init__(optimizer, beam_width=beam_width, seed=seed, **kwargs)
        if not 0.0 <= epsilon < 1.0:
            raise ValueError("epsilon must be in [0, 1)")
        self.epsilon = epsilon
        self._eps_rng = np.random.default_rng(seed + 77)

    def _beam_search(self, query: Query) -> list[str]:
        """Beam search keeping one epsilon-random slot per level."""
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
            keep = expanded[: self.beam_width]
            # Epsilon slot: replace the worst kept entry with a random
            # non-kept candidate so exploration never dies out.
            rest = expanded[self.beam_width :]
            if rest and self._eps_rng.random() < self.epsilon:
                keep[-1] = rest[int(self._eps_rng.integers(len(rest)))]
            beam = keep
        return beam[0][1]

    def choose_plan(self, query: Query) -> CandidatePlan:
        if not self._trained:
            return CandidatePlan(plan=self.optimizer.plan(query), source="default")
        return CandidatePlan(plan=self._search_plan(query), source="search")

    def bootstrap_from_expert(self, queries: list[Query], executor) -> None:
        """Seed the value network from executed native plans."""
        for q in queries:
            plan = self.optimizer.plan(q)
            self.record_feedback(q, CandidatePlan(plan, "expert"), executor(plan))
        self.retrain()


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
                                    lcand, rcand, conditions, coster, hints, card_of
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


class _SteeringDriverBase(Driver):
    """Shared plumbing for the Bao and Lero drivers."""

    injection_type = "query_optimizer"

    def __init__(self, retrain_every: int = 25, seed: int = 0) -> None:
        super().__init__()
        self.retrain_every = retrain_every
        self.seed = seed
        self._since_retrain = 0
        self.risk_model = None  # set in _prepare

    def _prepare(self) -> None:
        # Featurization metadata (schema, statistics) is catalog
        # information pulled from the attached database.
        host = self.interactor
        featurizer = PlanFeaturizer(host.db, coster=host.optimizer.coster)  # type: ignore[attr-defined]
        self.risk_model = self._build_risk_model(featurizer)

    def _build_risk_model(self, featurizer: PlanFeaturizer):
        raise NotImplementedError

    def _candidates(self, session, query: Query) -> list[CandidatePlan]:
        raise NotImplementedError

    def algo(self, query: Query) -> ExecutionResult:
        interactor = self._require_started()
        with interactor.open_session() as session:
            candidates = self._candidates(session, query)
            scores = self.risk_model.scores(candidates)
            best = candidates[int(np.argmin(scores))]
            result = session.pull_execution(best.plan)
        self.risk_model.observe(best, result.latency_ms)
        self._since_retrain += 1
        if self._since_retrain >= self.retrain_every:
            self._since_retrain = 0
            self.risk_model.retrain()
        return result

    def background_update(self) -> None:
        self.risk_model.retrain()


class BaoDriver(_SteeringDriverBase):
    """Bao through PilotScope: push hint sets, pull candidate plans."""

    name = "bao_driver"

    def __init__(
        self,
        arms: list[HintSet] | None = None,
        retrain_every: int = 25,
        seed: int = 0,
    ) -> None:
        super().__init__(retrain_every=retrain_every, seed=seed)
        self.arms = arms if arms is not None else HintSet.bao_arms()

    def _build_risk_model(self, featurizer: PlanFeaturizer):
        return TreeConvLatencyModel(featurizer, thompson=True, seed=self.seed)

    def _candidates(self, session, query: Query) -> list[CandidatePlan]:
        out, seen = [], set()
        for i, arm in enumerate(self.arms):
            session.reset_pushes()
            session.push_hint_set(arm)
            plan = session.pull_plan(query)
            sig = plan.signature()
            if sig in seen:
                continue
            seen.add(sig)
            out.append(
                CandidatePlan(plan=plan, source="default" if i == 0 else arm.name())
            )
        return out


class LeroDriver(_SteeringDriverBase):
    """Lero through PilotScope: push cardinality scales, pull plans."""

    name = "lero_driver"

    def __init__(
        self,
        factors: tuple[float, ...] = (1.0, 0.01, 0.1, 10.0, 100.0),
        retrain_every: int = 25,
        seed: int = 0,
    ) -> None:
        super().__init__(retrain_every=retrain_every, seed=seed)
        if factors[0] != 1.0:
            raise ValueError("first factor must be 1.0 (the default plan)")
        self.factors = factors

    def _build_risk_model(self, featurizer: PlanFeaturizer):
        return PairwisePlanComparator(featurizer, seed=self.seed)

    def _candidates(self, session, query: Query) -> list[CandidatePlan]:
        out, seen = [], set()
        for f in self.factors:
            session.reset_pushes()
            if f != 1.0:
                session.push_cardinality_scale(f)
            plan = session.pull_plan(query)
            sig = plan.signature()
            if sig in seen:
                continue
            seen.add(sig)
            out.append(
                CandidatePlan(
                    plan=plan, source="default" if f == 1.0 else f"scale={f:g}"
                )
            )
        return out

    def collect_training_data(self, queries: list[Query]) -> None:
        """Lero's pair-collection phase: execute candidates per query."""
        interactor = self._require_started()
        with interactor.open_session() as session:
            for query in queries:
                candidates = self._candidates(session, query)[:3]
                if len(candidates) < 2:
                    continue
                for cand in candidates:
                    result = session.pull_execution(cand.plan)
                    self.risk_model.observe(cand, result.latency_ms)

    def train(self) -> None:
        self.risk_model.retrain()


class RTOSPartialTree:
    """``RTOSJoinOrderSearch``'s state encoder (the two methods, verbatim)."""

    def __init__(self, optimizer: Optimizer) -> None:
        self.optimizer = optimizer
        self.featurizer = PlanFeaturizer(optimizer.db, coster=optimizer.coster)

    def _partial_tree(self, query: Query, prefix: list[str]):
        """Tree arrays of the partial left-deep plan over ``prefix``."""
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
            vec = self._node_vec(n, est)
            feats.append(vec)
            left.append(-1)
            right_idx.append(-1)
            if isinstance(n, JoinNode):
                left[my] = visit(n.left)
                right_idx[my] = visit(n.right)
            return my

        visit(node)
        return np.stack(feats), np.array(left), np.array(right_idx)

    def _node_vec(self, node: PlanNode, est_card: float) -> np.ndarray:
        # Reuse the cost-model featurizer layout via a synthetic encoding:
        # operator one-hot slots (scan/join generic), table one-hot, extras.
        n_ops = 5
        tables = self.featurizer.tables
        vec = np.zeros(self.featurizer.node_dim)
        if isinstance(node, ScanNode):
            vec[0] = 1.0
            vec[n_ops + tables.index(node.table)] = 1.0
            n_preds = len(node.predicates) / 4.0
        else:
            vec[2] = 1.0  # generic join slot
            n_preds = 0.0
        base = n_ops + len(tables)
        vec[base] = math.log1p(est_card) / 20.0
        vec[base + 1] = len(node.tables) / max(len(tables), 1)
        vec[base + 2] = n_preds
        return vec
