"""Multi-tenant admission: tenant registry, quotas, QoS classes.

The fabric serves many tenants from one pool of shards, so tenant-level
admission runs *ahead of* the per-shard virtual-time admission control
(timeouts, queue bounds): a request that fails its tenant's quota never
reaches a shard at all, and a low-priority request headed for a shard
under pressure is shed before it can queue behind interactive traffic.

- **Quotas** are per-tenant token buckets over *virtual* arrival time:
  ``rate_per_s`` tokens per virtual second up to ``burst``.  Refill is a
  pure function of the arrival timestamps, so same schedule + same specs
  gives byte-identical admission decisions on every run.
- **QoS classes** order tenants by latency sensitivity:
  ``interactive`` > ``batch`` > ``background``.  The class does not buy
  faster service -- shards are FIFO in virtual time -- it buys *admission
  priority under pressure*: the fabric sheds ``background`` work at a low
  shard backlog, ``batch`` at a higher one, and ``interactive`` only when
  the shard's own admission control rejects it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import ConfigError

__all__ = ["QOS_CLASSES", "QOS_PRIORITY", "TenantSpec", "TenantRegistry"]

#: QoS classes in priority order (most latency-sensitive first).
QOS_CLASSES = ("interactive", "batch", "background")

#: class -> numeric priority (lower sheds later).
QOS_PRIORITY = {name: rank for rank, name in enumerate(QOS_CLASSES)}


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's identity, QoS class and admission quota.

    ``rate_per_s`` is the sustained admission rate in requests per
    *virtual* second (``None`` = unmetered); ``burst`` is the token-bucket
    capacity, i.e. how far above the sustained rate a tenant may spike.
    ``weight`` is the tenant's share of generated traffic in
    :func:`~repro.serve.fabric.fabric.build_fabric_schedule` -- it plays
    no role in admission.
    """

    tenant_id: str
    qos: str = "interactive"
    rate_per_s: float | None = None
    burst: float = 32.0
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.tenant_id:
            raise ConfigError("tenant_id must be non-empty")
        if self.qos not in QOS_CLASSES:
            raise ConfigError(
                f"unknown QoS class {self.qos!r}; one of {QOS_CLASSES}"
            )
        if self.rate_per_s is not None and self.rate_per_s <= 0:
            raise ConfigError("rate_per_s must be > 0 or None")
        if self.burst < 1:
            raise ConfigError("burst must be >= 1")
        if self.weight <= 0:
            raise ConfigError("weight must be > 0")


class TenantRegistry:
    """Registered tenants plus deterministic quota accounting.

    A tenant's registration index is its session id: a fabric request
    whose ``session_id`` is ``i`` comes from the ``i``-th tenant
    registered (:meth:`registration_order`).  :meth:`admit` is called by
    the fabric for every request, in global arrival order, with the
    request's virtual arrival time; it refills the tenant's token bucket
    from the elapsed virtual time and either spends a token (admitted,
    returns ``None``) or rejects with reason ``"quota"``.  Unknown
    tenants are a configuration error -- silently admitting unregistered
    traffic would make quota tests lie.
    """

    def __init__(self, specs: tuple | list = ()) -> None:
        self._specs: dict[str, TenantSpec] = {}
        self._tokens: dict[str, float] = {}
        self._refilled_at_ms: dict[str, float] = {}
        self.admitted: dict[str, int] = {}
        self.rejected: dict[str, int] = {}
        for spec in specs:
            self.register(spec)

    def register(self, spec: TenantSpec) -> None:
        if spec.tenant_id in self._specs:
            raise ConfigError(f"tenant {spec.tenant_id!r} already registered")
        self._specs[spec.tenant_id] = spec
        self._tokens[spec.tenant_id] = float(spec.burst)
        self._refilled_at_ms[spec.tenant_id] = 0.0
        self.admitted[spec.tenant_id] = 0
        self.rejected[spec.tenant_id] = 0

    def spec(self, tenant_id: str) -> TenantSpec:
        try:
            return self._specs[tenant_id]
        except KeyError:
            raise ConfigError(f"unknown tenant {tenant_id!r}") from None

    def tenant_ids(self) -> list[str]:
        return sorted(self._specs)

    def registration_order(self) -> list[str]:
        """Tenant ids in registration order: index ``i`` is session id ``i``."""
        return list(self._specs)

    def qos(self, tenant_id: str) -> str:
        return self.spec(tenant_id).qos

    # -- admission ---------------------------------------------------------------

    def admit(self, tenant_id: str, arrival_ms: float) -> str | None:
        """Quota decision for one arrival; ``None`` admits, else a reason.

        Deterministic given the arrival stream: tokens refill from the
        virtual time elapsed since this tenant's previous refill, never
        from wall clock.  Arrival times are globally monotone (the fabric
        processes its schedule in arrival order), so refills are too.
        """
        spec = self.spec(tenant_id)
        if spec.rate_per_s is None:
            self.admitted[tenant_id] += 1
            return None
        elapsed_ms = arrival_ms - self._refilled_at_ms[tenant_id]
        if elapsed_ms > 0:
            self._tokens[tenant_id] = min(
                float(spec.burst),
                self._tokens[tenant_id] + elapsed_ms * spec.rate_per_s / 1_000.0,
            )
            self._refilled_at_ms[tenant_id] = arrival_ms
        if self._tokens[tenant_id] >= 1.0:
            self._tokens[tenant_id] -= 1.0
            self.admitted[tenant_id] += 1
            return None
        self.rejected[tenant_id] += 1
        return "quota"

    # -- reporting ---------------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Gauge-friendly per-tenant admission counters (numbers only)."""
        out: dict[str, float] = {}
        for tid in sorted(self._specs):
            out[f"{tid}.admitted"] = float(self.admitted[tid])
            out[f"{tid}.rejected"] = float(self.rejected[tid])
        return out
