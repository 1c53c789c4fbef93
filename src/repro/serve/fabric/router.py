"""Deterministic, load- and health-aware shard routing.

:class:`ShardRouter` partitions traffic over ``n_shards`` serving shards
by the canonical :func:`repro.sql.query.query_hash` (the same 12-hex
identity the canary split, the cardinality cache and the plan cache key
by), or, when pinned, by tenant id.  Placement is *two-choice*: each routing key hashes
to an ordered pair of candidate shards (a seeded sha256 derivation, so
the pair is a pure function of ``(seed, key)``), and the less-loaded
healthy candidate wins, ties broken toward the primary candidate and
then the lower shard id.  Power-of-two-choices keeps shard load within a
whisker of perfectly balanced without any global coordination -- which is
what the P9 near-linear-scaling gate measures -- while keeping the
routing table a pure function: same seed + same key + same (load,
health) observations = same shard, every run.

Health comes from the per-shard circuit breakers: a shard behind an OPEN
breaker (cooldown not yet elapsed) is excluded, and its traffic fails
over to the other candidate -- or, if both candidates are down, to the
first healthy shard scanning from the primary candidate (deterministic
rotation).  When every shard is unhealthy the router returns ``None``
and the fabric sheds the request as ``unavailable`` rather than queueing
on a known-bad shard.
"""

from __future__ import annotations

import hashlib

from repro.core.errors import ConfigError
from repro.core.lru import BoundedLRU
from repro.serve.fabric.shard import shard_name

__all__ = ["ShardRouter"]

#: keys whose candidate pair stays memoized; an evicted key's pair is
#: derived again, identically (it is a pure function of ``(seed, key)``)
PAIR_CAPACITY = 65_536


class ShardRouter:
    """Two-choice rendezvous routing over ``n_shards`` with failover.

    A ``pinned`` map bypasses two-choice placement: it assigns each tenant
    id to one shard, with *no* failover -- the shard owns state (e.g. that tenant's database) that
    no other shard can serve, so an unhealthy pinned shard makes the
    request ``unroutable`` rather than misrouted.  This is what the
    cross-schema transfer fleet uses: one tenant per generated schema,
    one schema per shard.
    """

    def __init__(
        self,
        n_shards: int,
        *,
        seed: int = 0,
        pinned: dict[str, int] | None = None,
    ) -> None:
        if n_shards < 1:
            raise ConfigError("need at least one shard")
        if pinned is not None:
            bad = {k: s for k, s in pinned.items() if not 0 <= s < n_shards}
            if bad:
                raise ConfigError(f"pinned assignments out of range: {bad}")
        self.n_shards = n_shards
        self.seed = int(seed)
        self.pinned = dict(pinned) if pinned is not None else None
        self.assignments = [0] * n_shards
        self.reroutes = 0  # served off the primary candidate (health)
        self.unroutable = 0  # every shard unhealthy
        #: the chosen shard's backlog as the last route() read it at its
        #: arrival, or None when that route() read no backlog
        self.chosen_backlog: int | None = None
        self._pairs = BoundedLRU(PAIR_CAPACITY)

    # -- candidate derivation ----------------------------------------------------

    def candidates(self, key: str) -> tuple[int, int]:
        """The deterministic (primary, secondary) shard pair for a key.

        Derived from one sha256 over ``(seed, key)``: the first 8 bytes
        pick the primary, the next 8 pick the secondary from the
        remaining shards (guaranteed distinct when ``n_shards > 1``).
        Memoized for the :data:`PAIR_CAPACITY` most recently used keys --
        workloads reuse query hashes heavily.
        """
        pair = self._pairs.get(key)
        if pair is None:
            digest = hashlib.sha256(
                f"route|{self.seed}|{key}".encode()
            ).digest()
            first = int.from_bytes(digest[:8], "big") % self.n_shards
            if self.n_shards == 1:
                pair = (0, 0)
            else:
                second = int.from_bytes(digest[8:16], "big") % (
                    self.n_shards - 1
                )
                if second >= first:
                    second += 1
                pair = (first, second)
            self._pairs.put(key, pair)
        return pair

    # -- routing -----------------------------------------------------------------

    def route(self, key: str, shards, at_ms: float) -> int | None:
        """Pick the shard for one request arriving at virtual ``at_ms``.

        ``shards`` is the fabric's shard list: the router asks a shard its
        ``healthy(at_ms)`` and ``backlog(at_ms)`` directly, and only the
        two candidates' while one of them is healthy -- the full scan runs
        only when both are down.  Returns the shard id, or ``None`` when no
        shard is healthy; :attr:`chosen_backlog` keeps the chosen shard's
        backlog when the two-choice comparison read it, so the caller need
        not ask that shard again at the same arrival.  Deterministic: the
        decision depends only on ``(seed, key)`` and the observed (load,
        health) values, and ties prefer the primary candidate, then the
        lower shard id.
        """
        if self.pinned is not None:
            self.chosen_backlog = None
            try:
                shard = self.pinned[key]
            except KeyError:
                raise ConfigError(
                    f"no pinned shard for routing key {key!r}; "
                    f"pinned tenants: {sorted(self.pinned)}"
                ) from None
            if not shards[shard].healthy(at_ms):
                self.unroutable += 1
                return None
            self.assignments[shard] += 1
            return shard
        first, second = self.candidates(key)
        primary = shards[first]
        chosen: int | None = None
        backlog: int | None = None
        if primary.healthy(at_ms):
            chosen = first
            if second != first:
                other = shards[second]
                if other.healthy(at_ms):
                    load, backlog = other.backlog(at_ms), primary.backlog(at_ms)
                    if load < backlog:
                        chosen, backlog = second, load
        elif second != first and shards[second].healthy(at_ms):
            chosen = second
        else:
            for step in range(self.n_shards):
                probe = (first + step) % self.n_shards
                if shards[probe].healthy(at_ms):
                    chosen = probe
                    break
        self.chosen_backlog = backlog
        if chosen is None:
            self.unroutable += 1
            return None
        self.assignments[chosen] += 1
        if chosen != first:
            self.reroutes += 1
        return chosen

    def routing_key(self, query_hash_value: str, tenant_id: str) -> str:
        """The partition key: the tenant id when pinned, else the query hash."""
        return query_hash_value if self.pinned is None else tenant_id

    # -- reporting ---------------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Gauge-friendly snapshot: per-shard assignment counts, reroutes."""
        out: dict[str, float] = {
            f"assigned.{shard_name(i)}": float(n)
            for i, n in enumerate(self.assignments)
        }
        out["reroutes"] = float(self.reroutes)
        out["unroutable"] = float(self.unroutable)
        out["keys"] = float(len(self._pairs))
        return out
