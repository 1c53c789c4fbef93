"""Parameterized plan cache: reuse compiled plans across literal bindings.

Planning dominates the serving path for short queries -- exactly the
overhead the surveyed learned optimizers are criticized for adding.  Most
production workloads are *parameterized*: the same query template arrives
over and over with different literals, and join-order/physical-method
decisions rarely change with the literals.  :class:`PlanCache` exploits
that: plans are cached under the query's literal-free
:attr:`~repro.sql.query.Query.template_key` -- a memoized tuple of the
tables, the joins and the predicates' shapes, built without rendering any
text -- and replayed for new bindings by substituting the fresh predicates
into the cached tree's scan nodes (:func:`rebind_plan`) -- join structure,
methods and conditions are literal-free and carry over unchanged.  A hit
costs what depends on its literals: one key tuple and one rebuilt tree.

Cache keys additionally pin the optimizer state
(:func:`repro.core.interfaces.estimator_cache_tag`, so refits/feedback
invalidate naturally) and the database's ``data_version`` (so data drift
invalidates naturally).  Deployment-stage changes call
:meth:`PlanCache.invalidate` explicitly -- a stage flip swaps which
optimizer serves, and plans chosen by the previous stage must not leak
into the next one's measurements.

The LRU, its counters and ``stats()`` are :class:`repro.core.lru.BoundedLRU`;
:meth:`repro.optimizer.Optimizer.plan_cached` is the one caller that builds
the key and goes through :meth:`PlanCache.get_or_plan`.
"""

from __future__ import annotations

from typing import Callable

from repro.core.lru import BoundedLRU
from repro.engine.plans import JoinNode, Plan, PlanNode, ScanNode
from repro.sql.query import Query

__all__ = ["PlanCache", "rebind_plan"]


def rebind_plan(plan: Plan, query: Query) -> Plan:
    """Re-target a cached plan at a new binding of the same template.

    Scan nodes get the new query's predicates on their table; join nodes
    (structure, methods, conditions) are literal-free and shared as-is.
    ``query`` must have the same ``template_key`` as ``plan.query`` --
    same tables and joins, so the rebuilt tree is valid by construction.
    Every rebuilt node still runs its constructor's checks, and is handed
    its template node's table set rather than re-deriving it.
    """
    if plan.query == query:
        return plan
    if plan.query.template_key != query.template_key:
        raise ValueError(
            f"cannot rebind plan for template {plan.query.template_key!r} "
            f"to query with template {query.template_key!r}"
        )

    def rebuild(node: PlanNode) -> PlanNode:
        if isinstance(node, ScanNode):
            new: PlanNode = ScanNode(
                table=node.table,
                method=node.method,
                predicates=query.predicates_on(node.table),
            )
        else:
            assert isinstance(node, JoinNode)
            new = JoinNode(
                left=rebuild(node.left),
                right=rebuild(node.right),
                method=node.method,
                conditions=node.conditions,
            )
        object.__setattr__(new, "_tables", node.tables)
        return new

    return Plan(query=query, root=rebuild(plan.root))


class PlanCache(BoundedLRU):
    """Bounded LRU from (template, optimizer tag, data version) to plans.

    The LRU and its hit/miss/eviction counters are
    :class:`~repro.core.lru.BoundedLRU`'s, as for the
    :class:`~repro.optimizer.cardcache.CardinalityCache`; ``stats()`` adds
    ``invalidations``, and every counter survives
    :meth:`clear`/:meth:`invalidate`.
    """

    def __init__(self, capacity: int = 4096) -> None:
        super().__init__(capacity)
        self.invalidations = 0

    @staticmethod
    def _key(query: Query, tag: tuple, data_version: int) -> tuple:
        return (query.template_key, tag, data_version)

    def lookup(self, query: Query, tag: tuple, data_version: int) -> Plan | None:
        """Cached plan rebound to ``query``, or None; counts hit or miss."""
        plan = self.get(self._key(query, tag, data_version))
        return None if plan is None else rebind_plan(plan, query)

    def insert(self, query: Query, tag: tuple, data_version: int, plan: Plan) -> None:
        self.put(self._key(query, tag, data_version), plan)

    def get_or_plan(
        self,
        query: Query,
        tag: tuple,
        data_version: int,
        plan_fn: Callable[[Query], Plan],
    ) -> tuple[Plan, bool]:
        """``(plan, was_hit)``: the cached plan rebound, or a fresh one."""
        plan = self.lookup(query, tag, data_version)
        if plan is not None:
            return plan, True
        plan = plan_fn(query)
        self.insert(query, tag, data_version, plan)
        return plan, False

    def invalidate(self) -> None:
        """Drop every entry (a deployment's stage change); keep counters."""
        self.clear()
        self.invalidations += 1

    def stats(self) -> dict[str, float]:
        return {**super().stats(), "invalidations": self.invalidations}

    def __repr__(self) -> str:
        return (
            f"PlanCache(entries={len(self)}, hits={self.hits}, "
            f"misses={self.misses}, evictions={self.evictions})"
        )
