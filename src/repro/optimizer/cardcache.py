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
``estimates_version``, unwrapping steering wrappers) with the query's
:func:`repro.sql.query.query_hash` -- the same canonical-text digest the
deployment manager's canary split and the experience store's dedup use, so
the repository has exactly one query-identity scheme.  Refits, feedback,
injected overrides and data drift all invalidate naturally -- stale
entries are simply never looked up again and age out of the LRU ring.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable

from repro.sql.query import Query, query_hash

__all__ = ["CardinalityCache"]


class CardinalityCache:
    """Bounded LRU map from (estimator tag, sub-query) to cardinality.

    Parameters
    ----------
    capacity:
        Maximum number of entries; least-recently-used entries are evicted
        beyond it.  The default comfortably holds every connected subset of
        the benchmark workloads times a handful of estimator states.
    """

    def __init__(self, capacity: int = 100_000) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[tuple, float]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def lookup(self, tag: tuple, query: Query) -> float | None:
        """Cached cardinality, or None; counts a hit or a miss either way."""
        key = (tag, query_hash(query))
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return value

    def insert(self, tag: tuple, query: Query, value: float) -> None:
        key = (tag, query_hash(query))
        self._entries[key] = float(value)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def get_or_compute(
        self, tag: tuple, query: Query, compute: Callable[[Query], float]
    ) -> float:
        value = self.lookup(tag, query)
        if value is None:
            value = float(compute(query))
            self.insert(tag, query, value)
        return value

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, float]:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }

    def clear(self) -> None:
        """Drop all entries (counters are kept; they describe the session)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"CardinalityCache(entries={len(self._entries)}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions})"
        )
