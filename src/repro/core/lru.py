"""The one bounded, counted LRU map.

The cardinality cache, the plan cache, the key-index cache, the exact
executor's memo, the shard router's pair memo, the join-graph cache and
the DP's arm-lane table (``optimizer/planner.py``'s ``_LANES``) are all
the same structure: at most ``capacity`` entries, the
least-recently-*used* one evicted first, and hit / miss / eviction
counters reported in one five-key shape.
They differ only in how they build a key and what they do on a miss, so
that is all they define; this class is the rest.

Imports nothing from ``repro``: :mod:`repro.engine.kernels` uses it, and
nearly every other module imports the engine.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable

__all__ = ["BoundedLRU"]


class BoundedLRU:
    """Bounded LRU map with hit / miss / eviction counters.

    ``None`` is not a storable value: :meth:`get` returns it for a miss.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable) -> Any:
        """The cached value (now the most recently used), or None; counts a
        hit or a miss either way."""
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return value

    def peek(self, key: Hashable) -> Any:
        """The cached value, or None; a read that leaves no trace -- no hit
        or miss counted, the LRU order unchanged."""
        return self._entries.get(key)

    def put(self, key: Hashable, value: Any) -> None:
        """Store ``value`` as the most recently used entry, evicting the
        least recently used ones beyond ``capacity``."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

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

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)
