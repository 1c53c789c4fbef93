"""Plan costing with *estimated* cardinalities (the optimizer's belief).

:class:`PlanCoster` evaluates the shared operator cost formulas on the
cardinalities produced by any :class:`repro.core.CardinalityEstimator`.
Because the simulator evaluates the same formulas on true cardinalities,
``coster.cost(plan)`` equals the plan's real cost exactly when the estimates
are exact -- estimation error is the sole source of plan-choice error.

Costers can share a :class:`repro.optimizer.CardinalityCache`: every
sub-query estimate is answered from the cache when possible and batched
through :func:`repro.core.interfaces.batch_estimate` when the enumerator
primes many subsets at once (:meth:`PlanCoster.subquery_cardinalities`).
"""

from __future__ import annotations

from typing import Sequence

from repro.cardest.base import sanitize_estimate, sanitize_estimates
from repro.core.interfaces import (
    CardinalityEstimator,
    batch_estimate,
    estimator_cache_tag,
)
from repro.engine.cost_formulas import CostConstants, OperatorCosts
from repro.engine.plans import JoinMethod, JoinNode, Plan, PlanNode, ScanMethod, ScanNode
from repro.optimizer.cardcache import CardinalityCache
from repro.sql.query import Query
from repro.storage.catalog import Database

__all__ = ["PlanCoster", "PlanningTag"]


class PlanningTag:
    """One planning's :meth:`PlanCoster.cache_tag`, taken when the planning
    starts and again only after the coster runs its estimator.

    Nothing a planning calls refits an estimator or drifts the data, but an
    estimate can move its own estimator's tag: a breaker-wrapped estimator
    (``FallbackEstimator``, ``BoundGuard``) folds its breaker epoch into
    ``estimates_version``.  Every lookup therefore keys on the tag a fresh
    :meth:`~PlanCoster.cache_tag` would give, and a planning whose lookups
    all hit takes it once.
    """

    __slots__ = ("value",)

    def __init__(self, value: tuple) -> None:
        self.value = value


class PlanCoster:
    """Estimated-cost evaluation of plans and plan fragments.

    When ``cache`` is given, every cardinality the coster needs is looked
    up in (and inserted into) it, keyed by the estimator's current state
    tag and the database's ``data_version`` -- so the cache can safely
    outlive a single planning and be shared across costers wrapping
    different steering wrappers around the same base estimator.
    """

    def __init__(
        self,
        db: Database,
        estimator: CardinalityEstimator,
        constants: CostConstants | None = None,
        cache: CardinalityCache | None = None,
    ) -> None:
        self.db = db
        self.estimator = estimator
        self.ops = OperatorCosts(constants)
        self.cache = cache

    # -- cardinalities ------------------------------------------------------------

    def cache_tag(self) -> tuple:
        """The cache-key half that names this coster's estimator state and
        the data it priced: what a :meth:`CardinalityCache.peek` needs."""
        return (estimator_cache_tag(self.estimator), self.db.data_version)

    def planning_tag(self) -> PlanningTag:
        """A :class:`PlanningTag` for one planning's tagged calls."""
        return PlanningTag(self.cache_tag())

    def estimate_cardinality(self, query: Query) -> float:
        """Cached (if enabled) estimate of one sub-query.

        Estimates are sanitized centrally (:func:`repro.cardest.base.
        sanitize_estimate`) before use or caching, so arbitrary estimator
        output -- NaN, Inf, negatives -- can never reach cost arithmetic.
        """
        return self.estimate_cardinalities([query])[0]

    def estimate_cardinalities(self, queries: Sequence[Query]) -> list[float]:
        """:meth:`estimate_cardinality` of each of ``queries``, in order, one
        cache lookup each, keyed on one tag read up front."""
        if self.cache is None:
            return [sanitize_estimate(self.estimator.estimate(q)) for q in queries]
        tag, estimate = self.cache_tag(), self.estimator.estimate
        compute = lambda q: sanitize_estimate(estimate(q))  # noqa: E731
        return [self.cache.get_or_compute(tag, q, compute) for q in queries]

    def subquery_cardinality(self, query: Query, tables: frozenset[str]) -> float:
        return self.estimate_cardinality(query.subquery(tables))

    def subquery_cardinalities(
        self, query: Query, subsets: list[frozenset[str]], tag: PlanningTag
    ) -> dict[frozenset[str], float]:
        """Cardinalities for many subsets of one query at once.

        Answers what it can from the cache and runs a single
        :func:`batch_estimate` call over the misses -- this is how the DP
        enumerator primes all connected subsets with one featurization pass
        and one model forward pass before its inner loop runs.  Every
        lookup and insert keys on ``tag`` as the call found it.
        """
        key = tag.value
        out: dict[frozenset[str], float] = {}
        misses: list[frozenset[str]] = []
        miss_queries: list[Query] = []
        for tables in subsets:
            if tables in out:
                continue
            sub = query.subquery(tables)
            hit = self.cache.lookup(key, sub) if self.cache is not None else None
            if hit is not None:
                out[tables] = hit
            else:
                out[tables] = -1.0  # placeholder, overwritten below
                misses.append(tables)
                miss_queries.append(sub)
        if misses:
            values = sanitize_estimates(batch_estimate(self.estimator, miss_queries))
            for tables, sub, value in zip(misses, miss_queries, values):
                out[tables] = float(value)
                if self.cache is not None:
                    self.cache.insert(key, sub, float(value))
            tag.value = self.cache_tag()  # the estimates may have moved it
        return out

    def _index_fetched(self, node: ScanNode, tag: PlanningTag) -> float:
        """Rows an index scan fetches through its driving predicate: the
        estimate of the one-predicate query on the table, looked up by its
        field tuple, so the query is built only to estimate a miss."""
        if not node.predicates:
            return float(self.db.table(node.table).n_rows)
        if self.cache is None:
            single = Query((node.table,), (), (node.predicates[0],))
            return sanitize_estimate(self.estimator.estimate(single))

        def estimate(single: Query) -> float:
            value = sanitize_estimate(self.estimator.estimate(single))
            tag.value = self.cache_tag()  # the estimate may have moved it
            return value

        return self.cache.get_or_compute_scan(
            tag.value, node.table, node.predicates[0], estimate
        )

    # -- operator costs -------------------------------------------------------------

    def scan_cost(self, node: ScanNode) -> float:
        return self.tagged_scan_cost(node, self.planning_tag())

    def tagged_scan_cost(self, node: ScanNode, tag: PlanningTag) -> float:
        """:meth:`scan_cost` under one planning's :class:`PlanningTag`."""
        base_rows = self.db.table(node.table).n_rows
        if node.method is ScanMethod.SEQ:
            return self.ops.seq_scan(base_rows, len(node.predicates))
        return self.ops.index_scan(
            base_rows, self._index_fetched(node, tag), len(node.predicates)
        )

    def join_operator_cost(
        self,
        method: JoinMethod,
        left_rows: float,
        right_rows: float,
        out_rows: float,
        right_node: PlanNode | None,
    ) -> float:
        """Cost of one join operator given (estimated) input/output sizes.

        ``right_node`` is read only for "is the inner side a base-table
        scan, and of which table" (index nested loop); ``None`` stands for
        any inner side that is not one.
        """
        if method is JoinMethod.HASH:
            return self.ops.hash_join(left_rows, right_rows, out_rows)
        if method is JoinMethod.MERGE:
            return self.ops.merge_join(left_rows, right_rows, out_rows)
        if isinstance(right_node, ScanNode):
            inner_base = self.db.table(right_node.table).n_rows
            return self.ops.nested_loop_indexed(left_rows, inner_base, out_rows)
        return self.ops.nested_loop_naive(left_rows, right_rows, out_rows)

    # -- whole-plan cost --------------------------------------------------------------

    def cost(self, plan: Plan) -> float:
        """Total estimated cost of the plan (sum of node costs)."""
        total = 0.0
        for node in plan.walk():
            if isinstance(node, ScanNode):
                total += self.scan_cost(node)
            else:
                assert isinstance(node, JoinNode)
                total += self.join_operator_cost(
                    node.method,
                    self.subquery_cardinality(plan.query, node.left.tables),
                    self.subquery_cardinality(plan.query, node.right.tables),
                    self.subquery_cardinality(plan.query, node.tables),
                    node.right,
                )
        return total
