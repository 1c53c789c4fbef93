"""Cross-plan cardinality cache.

The same sub-queries are estimated over and over: the DP enumerator
visits every connected subset once per planning; the plan featurizer then
asks for the cardinality of every node of every candidate plan the
enumerator just costed; Lero's per-factor wrappers (recreated every
planning) and PilotScope's one-hint-set-at-a-time Bao driver re-plan
queries they have planned before; and a query stream repeats sub-queries
across requests.  A shared :class:`CardinalityCache` turns all but the
first estimation of each (estimator-state, sub-query) pair into a
dictionary lookup.  The in-process Bao does not come here once per
hint-set arm: :func:`repro.optimizer.planner.enumerate_dp_arms` plans all
arms in one pass and looks each subset up once.

Keys pair :func:`repro.core.interfaces.estimator_cache_tag` (instance +
``estimates_version``, unwrapping steering wrappers) with the sub-query's
field tuple ``(tables, joins, predicates)`` -- equal exactly when the
queries are, the key the exact executor's memo uses too.  Planning
therefore renders no sub-query's SQL and hashes no text: each join and
predicate hashes once, and the restrictions of a query share them.  The canary split, the serving traces and the experience
store's dedup still key by :func:`repro.sql.query.query_hash`, the
canonical-text digest; nothing here needs a digest that travels between
processes.  Refits, feedback, injected overrides and data drift all
invalidate naturally -- stale entries are simply never looked up again
and age out of the LRU ring.
The ring itself -- eviction order, the hit / miss / eviction counters and the
``stats()`` dict -- is :class:`repro.core.lru.BoundedLRU`.
"""

from __future__ import annotations

from typing import Callable

from repro.core.lru import BoundedLRU
from repro.sql.query import Predicate, Query

__all__ = ["CardinalityCache"]


def _key(tag: tuple, query: Query) -> tuple:
    return (tag, query.tables, query.joins, query.predicates)


class CardinalityCache(BoundedLRU):
    """Bounded LRU map from (estimator tag, sub-query) to cardinality.

    Parameters
    ----------
    capacity:
        Maximum number of entries; least-recently-used entries are evicted
        beyond it.  The default comfortably holds every connected subset of
        the benchmark workloads times a handful of estimator states.
    """

    def __init__(self, capacity: int = 100_000) -> None:
        super().__init__(capacity)

    def lookup(self, tag: tuple, query: Query) -> float | None:
        """Cached cardinality, or None; counts a hit or a miss either way."""
        return self.get(_key(tag, query))

    def peek(self, tag: tuple, query: Query) -> float | None:  # type: ignore[override]
        """Cached cardinality, or None, counting nothing and leaving the LRU
        order alone: how an observer reads back what a planning priced."""
        return super().peek(_key(tag, query))

    def insert(self, tag: tuple, query: Query, value: float) -> None:
        self.put(_key(tag, query), float(value))

    def get_or_compute(
        self, tag: tuple, query: Query, compute: Callable[[Query], float]
    ) -> float:
        value = self.lookup(tag, query)
        if value is None:
            value = float(compute(query))
            self.insert(tag, query, value)
        return value

    def get_or_compute_scan(
        self,
        tag: tuple,
        table: str,
        predicate: Predicate,
        compute: Callable[[Query], float],
    ) -> float:
        """:meth:`get_or_compute` for ``Query((table,), (), (predicate,))``,
        keyed from those fields: an index scan's row estimate builds (and
        validates) its one-predicate query only on a miss."""
        key = (tag, (table,), (), (predicate,))
        value = self.get(key)
        if value is None:
            value = float(compute(Query((table,), (), (predicate,))))
            self.put(key, value)
        return value

    def __repr__(self) -> str:
        return (
            f"CardinalityCache(entries={len(self)}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions})"
        )
