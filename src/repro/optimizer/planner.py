"""Plan enumeration and the native optimizer facade.

Enumeration algorithms (§2, plan enumerator component):

- **Dynamic programming** over connected subsets (DPsub, the PostgreSQL /
  Volcano classic): optimal w.r.t. the estimated cost model, considering
  bushy trees, all enabled join methods and both join orientations.  One
  kernel (:func:`enumerate_dp_arms`) plans a whole list of hint sets in a
  single pass; a single planning is its one-arm case.
- **Greedy**: repeatedly joins the cheapest pair -- the fast fallback
  traditional systems use for large queries.
- **Left-deep DP**: restricts to left-deep trees (the search space the RL
  join-order methods of §2.1.3 operate in).

:class:`Optimizer` packages stats + estimator + coster + enumeration behind
the two steering surfaces (estimator swap, hint sets).
"""

from __future__ import annotations

import math
import weakref
from itertools import combinations
from typing import Sequence

from repro.core.interfaces import CardinalityEstimator, estimator_cache_tag
from repro.core.lru import BoundedLRU
from repro.engine.cost_formulas import CostConstants
from repro.engine.plans import (
    JoinMethod,
    JoinNode,
    Plan,
    PlanNode,
    ScanMethod,
    ScanNode,
)
from repro.optimizer.cardcache import CardinalityCache
from repro.optimizer.cost import PlanCoster
from repro.optimizer.hints import HintSet
from repro.optimizer.plancache import PlanCache
from repro.optimizer.risk import RISK_MODES, RiskCoster
from repro.optimizer.statistics import DatabaseStats
from repro.optimizer.traditional import TraditionalCardinalityEstimator
from repro.sql.joingraph import join_graph
from repro.sql.query import Join, Query
from repro.storage.catalog import Database

__all__ = ["Optimizer", "enumerate_dp", "enumerate_dp_arms", "enumerate_greedy"]

_DEFAULT_HINTS = HintSet.default()


def _pricing_state(coster: PlanCoster | RiskCoster) -> tuple:
    """Everything a planning's result depends on besides the query and the
    hints: each estimator's :meth:`PlanCoster.cache_tag` (instance,
    ``estimates_version``, ``data_version``) and a risk coster's blend."""
    if isinstance(coster, RiskCoster):
        return (coster.risk_lambda, coster.expected.cache_tag(), coster.bound.cache_tag())
    return (coster.cache_tag(),)


def _join_conditions_between(
    query: Query, left: frozenset[str], right: frozenset[str]
) -> tuple[Join, ...]:
    return tuple(
        j
        for j in query.joins
        if (j.left.table in left and j.right.table in right)
        or (j.left.table in right and j.right.table in left)
    )


def _scan_methods(hints: HintSet, preds: tuple) -> list[ScanMethod]:
    """Scan methods ``hints`` allows on a table filtered by ``preds``, in
    tie-break order.

    Index scans need a driving predicate; index-only hints on a
    predicate-less table fall back to a seq scan, as real systems do
    rather than failing the query.
    """
    return [
        m for m in hints.scan_methods if preds or m is ScanMethod.SEQ
    ] or [ScanMethod.SEQ]


def _best_scan(
    query: Query, table: str, coster: PlanCoster, hints: HintSet, tag
) -> tuple[ScanNode, float]:
    """Cheapest allowed scan for one table, priced under ``tag``."""
    preds = query.predicates_on(table)
    candidates = []
    for method in _scan_methods(hints, preds):
        node = ScanNode(table=table, method=method, predicates=preds)
        candidates.append((node, coster.tagged_scan_cost(node, tag)))
    return min(candidates, key=lambda c: c[1])


def _best_join(
    left: tuple[PlanNode, float],
    right: tuple[PlanNode, float],
    conditions: tuple[Join, ...],
    coster: PlanCoster,
    hints: HintSet,
    card_of: dict[frozenset[str], float],
) -> tuple[JoinNode, float] | None:
    """Cheapest allowed join combining the two sub-plans, either way round."""
    best: tuple[JoinNode, float] | None = None
    out_card = card_of[left[0].tables | right[0].tables]
    for (a, ca), (b, cb) in ((left, right), (right, left)):
        for method in hints.join_methods:
            op_cost = coster.join_operator_cost(
                method, card_of[a.tables], card_of[b.tables], out_card, b
            )
            total = ca + cb + op_cost
            if best is None or total < best[1]:
                best = (JoinNode(a, b, method, conditions), total)
    return best


class _Lanes:
    """What an arm list fixes in the DP whatever the query: one lane per
    distinct arm, the scan methods a filtered table is priced with (in the
    order the lanes first ask for them), each lane's scan and join method
    choices, and the join methods priced at all."""

    __slots__ = ("arm_lane", "count", "scan_order", "scans", "methods", "lane_methods")

    def __init__(self, arms: tuple[HintSet, ...]) -> None:
        lane_of: dict[HintSet, int] = {}
        for arm in arms:
            lane_of.setdefault(arm, len(lane_of))
        distinct = list(lane_of)
        self.arm_lane = tuple(lane_of[arm] for arm in arms)
        self.count = len(distinct)
        self.scans = tuple(arm.scan_methods for arm in distinct)
        self.scan_order = tuple(dict.fromkeys(m for ms in self.scans for m in ms))
        allowed = [arm.join_methods for arm in distinct]
        self.methods = tuple(m for m in JoinMethod if any(m in ms for ms in allowed))
        self.lane_methods = tuple(
            tuple(self.methods.index(m) for m in ms) for ms in allowed
        )


#: arm list -> its :class:`_Lanes`; Bao, AutoSteer and the one-arm plans
#: each sweep one fixed list, so a handful of entries serve a process.
_LANES = BoundedLRU(64)


def _lanes(arms: Sequence[HintSet]) -> _Lanes:
    key = tuple(arms)
    lanes = _LANES.get(key)
    if lanes is None:
        lanes = _Lanes(key)
        _LANES.put(key, lanes)
    return lanes


def enumerate_dp_arms(
    query: Query,
    coster: PlanCoster | RiskCoster,
    arms: Sequence[HintSet],
    *,
    left_deep_only: bool = False,
) -> list[Plan]:
    """Optimal plan per hint set, from one DP pass over the subsets.

    Hint sets only restrict *which operators are allowed*, so everything
    an arm's DP computes except its ``min`` is the same for every arm:
    the connected subsets, their estimated cardinalities (one batched
    :meth:`PlanCoster.subquery_cardinalities` call), the partitions, the
    join conditions, the <= 2 scan costs per table and the <= 3 join
    operator costs per (partition, orientation).  Each table cell keeps
    one ``(cost, choice)`` per distinct arm, updated by strict ``<`` in a
    fixed order -- partition, orientation, then the arm's
    ``HintSet.join_methods`` (scans: SEQ before INDEX) -- so every arm
    gets exactly the plan, ties included, that a DP run for it alone
    would.  Plan nodes are built only for the winners and interned, so
    arms whose plans are equal return the same :class:`Plan` object.  The
    subsets, partitions and join conditions are read off the query's
    :class:`~repro.sql.joingraph.JoinGraph`, compiled once per ``(tables,
    joins)`` and shared by every query of that shape; the lanes and their
    method tables once per arm list (:class:`_Lanes`).  The coster's cache
    tag is taken once, and again only after its estimator ran
    (:class:`~repro.optimizer.cost.PlanningTag`).
    """
    if not arms:
        raise ValueError("need at least one hint set")
    tables = query.tables
    lanes = _lanes(arms)
    tag = coster.planning_tag()

    # Prime the estimated cardinalities of every connected subset in one
    # batched call: cache hits are answered directly and the misses go
    # through the estimator's ``estimate_batch`` as a single featurization
    # + forward pass instead of one call per subset.
    graph = join_graph(query)
    connected = graph.subsets
    card_of = coster.subquery_cardinalities(query, connected, tag)

    # ``costs[subset][lane]`` / ``choices[subset][lane]`` are the DP table.
    # A scan choice is its (shared) ScanNode, a join choice is ``(left set,
    # right set, method, conditions)``.
    costs: dict[frozenset[str], list[float]] = {}
    choices: dict[frozenset[str], list] = {}

    for t, single in zip(tables, connected):
        preds = query.predicates_on(t)
        if preds:
            priced: dict[ScanMethod, tuple[ScanNode, float]] = {}
            for method in lanes.scan_order:
                node = ScanNode(table=t, method=method, predicates=preds)
                priced[method] = (node, coster.tagged_scan_cost(node, tag))
            cells = []
            for allowed in lanes.scans:
                cheapest = priced[allowed[0]]
                for method in allowed[1:]:
                    if priced[method][1] < cheapest[1]:
                        cheapest = priced[method]
                cells.append(cheapest)
        else:
            # Index scans need a driving predicate: every arm seq-scans.
            node = ScanNode(table=t, method=ScanMethod.SEQ, predicates=preds)
            cells = [(node, coster.tagged_scan_cost(node, tag))] * lanes.count
        choices[single] = [node for node, _ in cells]
        costs[single] = [cost for _, cost in cells]

    methods = lanes.methods
    lane_methods = lanes.lane_methods
    lane_range = range(lanes.count)
    # Sizes ascending, so both halves of a partition are priced already;
    # the singletons come first and were priced above.  Every connected
    # subset of two or more tables has a partition whose right half is one
    # table other than its first (a spanning tree has two leaves), so
    # every connected subset gets a plan, in both modes, before a larger
    # one reads it.
    partitions = graph.partitions
    for subset in connected[len(tables) :]:
        best_cost = [math.inf] * lanes.count
        best_choice: list = [None] * lanes.count
        out_card = card_of[subset]
        for left_set, right_set, conditions in partitions[subset]:
            if left_deep_only and len(right_set) != 1:
                continue
            # Left-deep pins the orientation: the inner/right side
            # must stay a base relation.
            orientations = (
                ((left_set, right_set),)
                if left_deep_only
                else ((left_set, right_set), (right_set, left_set))
            )
            for a, b in orientations:
                # The operator cost depends on the inner side only
                # through "is it a base-table scan, of which table".
                inner = choices[b][0] if len(b) == 1 else None
                op_costs = [
                    coster.join_operator_cost(
                        m, card_of[a], card_of[b], out_card, inner
                    )
                    for m in methods
                ]
                cost_a, cost_b = costs[a], costs[b]
                for lane in lane_range:
                    inputs = cost_a[lane] + cost_b[lane]
                    for i in lane_methods[lane]:
                        total = inputs + op_costs[i]
                        # The first candidate wins whatever it costs.
                        if best_choice[lane] is None or total < best_cost[lane]:
                            best_cost[lane] = total
                            best_choice[lane] = (a, b, methods[i], conditions)
        costs[subset] = best_cost
        choices[subset] = best_choice

    full = frozenset(tables)
    if full not in costs:
        raise ValueError(f"no connected plan covers all tables of {query}")

    joins: dict[tuple[int, int, JoinMethod], JoinNode] = {}

    def build(subset: frozenset[str], lane: int) -> PlanNode:
        choice = choices[subset][lane]
        if isinstance(choice, ScanNode):
            return choice
        a, b, method, conditions = choice
        left, right = build(a, lane), build(b, lane)
        key = (id(left), id(right), method)
        if key not in joins:
            joins[key] = JoinNode(left, right, method, conditions)
        return joins[key]

    plans: dict[int, Plan] = {}
    lane_plans = []
    for lane in lane_range:
        root = build(full, lane)
        if id(root) not in plans:
            plans[id(root)] = Plan(query, root)
        lane_plans.append(plans[id(root)])
    return [lane_plans[lane] for lane in lanes.arm_lane]


def enumerate_dp(
    query: Query,
    coster: PlanCoster,
    hints: HintSet | None = None,
    *,
    left_deep_only: bool = False,
) -> Plan:
    """Optimal plan under the estimated cost model (DP over subsets):
    the one-arm case of :func:`enumerate_dp_arms`."""
    hints = hints if hints is not None else _DEFAULT_HINTS
    return enumerate_dp_arms(query, coster, [hints], left_deep_only=left_deep_only)[0]


def enumerate_greedy(
    query: Query, coster: PlanCoster, hints: HintSet | None = None
) -> Plan:
    """Greedy pairwise joining: fast, possibly suboptimal."""
    hints = hints if hints is not None else _DEFAULT_HINTS
    tag = coster.planning_tag()
    fragments: dict[frozenset[str], tuple[PlanNode, float]] = {}
    card_of: dict[frozenset[str], float] = {}
    for t in query.tables:
        key = frozenset((t,))
        fragments[key] = _best_scan(query, t, coster, hints, tag)
        card_of.update(coster.subquery_cardinalities(query, [key], tag))

    while len(fragments) > 1:
        champion: tuple[frozenset[str], frozenset[str], JoinNode, float] | None = None
        keys = list(fragments)
        for a, b in combinations(keys, 2):
            conditions = _join_conditions_between(query, a, b)
            if not conditions:
                continue
            merged = a | b
            if merged not in card_of:
                card_of.update(coster.subquery_cardinalities(query, [merged], tag))
            cand = _best_join(fragments[a], fragments[b], conditions, coster, hints, card_of)
            if cand is not None and (champion is None or cand[1] < champion[3]):
                champion = (a, b, cand[0], cand[1])
        if champion is None:
            raise ValueError(f"join graph disconnected during greedy planning: {query}")
        a, b, node, cost = champion
        del fragments[a], fragments[b]
        fragments[a | b] = (node, cost)
    (_, (root, _)), = fragments.items()
    return Plan(query, root)


class Optimizer:
    """The native optimizer: stats + pluggable estimator + enumeration.

    Parameters
    ----------
    db:
        The database to plan against.
    estimator:
        Cardinality estimator consulted during costing; defaults to the
        traditional histogram estimator.  Swapping this is how learned
        estimators and injection/scaling knobs steer the planner.
    stats:
        Pre-built statistics (ANALYZE output); built on demand otherwise.
    constants:
        Cost-model constants.
    cache:
        Cross-plan :class:`CardinalityCache`; a fresh one is created when
        not given.  The cache persists across plannings (and across
        estimator swaps via :meth:`with_estimator`): it serves sub-queries
        repeated across queries, plan featurization (``PlanFeaturizer(db,
        coster=optimizer.coster)`` reads the node cardinalities the DP
        just primed) and Lero's per-factor re-plannings.  Bao's arms do
        not lean on it: :meth:`plan_arms` plans them all in one DP pass.
    bound_estimator:
        Optional pessimistic upper-bound estimator (:mod:`repro.cardest.
        bounds`) enabling the risk-bounded planner modes.  It gets its
        own coster over the *same* cardinality cache (distinct estimator
        tags keep expected and worst-case entries apart).
    risk / risk_lambda:
        Default risk mode for :meth:`plan`: ``"expected"`` (classic
        estimated-cost minimization), ``"worst_case"`` (minimize cost
        under the certified bound) or ``"blended"`` (mix the two at
        ``risk_lambda`` -- 0 is expected, 1 is worst-case).  Both can be
        overridden per call.
    """

    #: ``(weakref to the optimizer, state, default plan)`` of the last arm
    #: sweep that planned the default hint set, process-wide: one entry,
    #: on the class so no model fingerprint walks it.  The plan holds its
    #: query; the optimizer is held weakly, so the entry keeps no database
    #: alive.
    _last_sweep: tuple | None = None

    def __init__(
        self,
        db: Database,
        estimator: CardinalityEstimator | None = None,
        stats: DatabaseStats | None = None,
        constants: CostConstants | None = None,
        cache: CardinalityCache | None = None,
        *,
        bound_estimator: CardinalityEstimator | None = None,
        risk: str = "expected",
        risk_lambda: float = 0.5,
    ) -> None:
        if risk not in RISK_MODES:
            raise ValueError(f"unknown risk mode {risk!r}; one of {RISK_MODES}")
        if risk != "expected" and bound_estimator is None:
            raise ValueError(
                f"risk={risk!r} needs a bound_estimator (see repro.cardest.bounds)"
            )
        self.db = db
        self.stats = stats if stats is not None else DatabaseStats.build(db)
        self.estimator: CardinalityEstimator = (
            estimator
            if estimator is not None
            else TraditionalCardinalityEstimator(db, self.stats)
        )
        self.constants = constants
        self.cache = cache if cache is not None else CardinalityCache()
        self.coster = PlanCoster(db, self.estimator, constants, cache=self.cache)
        self.bound_estimator = bound_estimator
        self.risk = risk
        self.risk_lambda = float(risk_lambda)
        self.bound_coster = (
            PlanCoster(db, bound_estimator, constants, cache=self.cache)
            if bound_estimator is not None
            else None
        )

    def with_estimator(self, estimator: CardinalityEstimator) -> "Optimizer":
        """A new optimizer sharing stats (and the cardinality cache) but
        using a different estimator."""
        return Optimizer(
            self.db,
            estimator,
            self.stats,
            self.constants,
            cache=self.cache,
            bound_estimator=self.bound_estimator,
            risk=self.risk,
            risk_lambda=self.risk_lambda,
        )

    def _planning_coster(
        self, risk: str | None, risk_lambda: float | None
    ) -> PlanCoster | RiskCoster:
        """The coster one planning runs under (risk knobs resolved)."""
        risk = self.risk if risk is None else risk
        if risk not in RISK_MODES:
            raise ValueError(f"unknown risk mode {risk!r}; one of {RISK_MODES}")
        if risk == "expected":
            return self.coster
        if self.bound_coster is None:
            raise ValueError(
                f"risk={risk!r} needs a bound_estimator (see repro.cardest.bounds)"
            )
        lam = (
            1.0
            if risk == "worst_case"
            else (self.risk_lambda if risk_lambda is None else float(risk_lambda))
        )
        return RiskCoster(self.coster, self.bound_coster, lam)

    def cache_stats(self) -> dict[str, float]:
        """Hit/miss/eviction counters of the shared cardinality cache."""
        return self.cache.stats()

    def plan(
        self,
        query: Query,
        hints: HintSet | None = None,
        algorithm: str = "dp",
        *,
        risk: str | None = None,
        risk_lambda: float | None = None,
    ) -> Plan:
        """Produce a physical plan. ``algorithm``: dp | greedy | left_deep.

        ``risk``/``risk_lambda`` override the optimizer's defaults for
        this one planning (e.g. ``risk="worst_case"`` picks the plan
        minimizing cost under the certified cardinality bound).

        A default-hint ``dp`` planning of the very ``query`` object this
        optimizer's last arm sweep planned, in the same risk mode and
        estimator state, is that sweep's default lane: :meth:`plan_arms`
        guarantees it equals a fresh DP."""
        coster = self._planning_coster(risk, risk_lambda)
        sweep = self._last_sweep
        if (
            sweep is not None
            and sweep[2].query is query
            and sweep[0]() is self
            and algorithm == "dp"
            and (hints is None or hints == _DEFAULT_HINTS)
            and sweep[1] == _pricing_state(coster)
        ):
            return sweep[2]
        if algorithm == "dp":
            return enumerate_dp(query, coster, hints)
        if algorithm == "greedy":
            return enumerate_greedy(query, coster, hints)
        if algorithm == "left_deep":
            return enumerate_dp(query, coster, hints, left_deep_only=True)
        raise ValueError(f"unknown algorithm {algorithm!r}")

    def plan_cached(self, query: Query, plan_cache: PlanCache) -> tuple[Plan, bool]:
        """``(plan, was_hit)``: the default plan, through ``plan_cache``.

        The entry is keyed on the query's template, this optimizer's
        estimator state and the database's ``data_version``; a hit is the
        cached plan rebound to ``query``'s literals."""
        return plan_cache.get_or_plan(
            query, estimator_cache_tag(self.estimator), self.db.data_version, self.plan
        )

    def plan_arms(
        self,
        query: Query,
        arms: Sequence[HintSet],
        *,
        risk: str | None = None,
        risk_lambda: float | None = None,
    ) -> list[Plan]:
        """The DP plan of every hint set in ``arms``, from one enumeration.

        ``plan_arms(q, arms)[i] == plan(q, hints=arms[i])`` for every arm;
        arms whose plans are equal get the same :class:`Plan` object.  This
        is Bao's and AutoSteer's sweep (:func:`enumerate_dp_arms`).  When
        ``arms`` holds the default hint set, its plan is remembered (one
        entry, :attr:`_last_sweep`) for the :meth:`plan` of the same
        ``query`` that follows."""
        coster = self._planning_coster(risk, risk_lambda)
        state = _pricing_state(coster)  # before the DP reads the estimators
        plans = enumerate_dp_arms(query, coster, arms)
        if _DEFAULT_HINTS in arms:
            default = plans[arms.index(_DEFAULT_HINTS)]
            Optimizer._last_sweep = (weakref.ref(self), state, default)
        return plans

    def cost(self, plan: Plan) -> float:
        """Estimated cost of an arbitrary plan under the current estimator."""
        return self.coster.cost(plan)
