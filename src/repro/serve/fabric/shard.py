"""One serving shard: the serving core plus what the router reads.

A :class:`ShardRuntime` *is* a :class:`~repro.serve.runtime.ServingRuntime`
-- admission, breaker, backend, telemetry and audit are the inherited
:meth:`~repro.serve.runtime.ServingRuntime.submit`, which the fabric calls
once per routed request in global arrival order (no lane: the request
takes the earliest-free worker).  The subclass adds only a shard id/name,
the ``shard`` / ``shard_breaker`` gauges and the router's non-mutating
:meth:`healthy` peek, so per-shard buses export exactly the shapes a
single runtime's bus does and :meth:`repro.serve.TelemetryBus.merged` can
compose them fabric-wide.
"""

from __future__ import annotations

from repro.core.interfaces import Backend
from repro.faults.plan import FaultInjector
from repro.faults.resilience import CircuitBreaker
from repro.serve.runtime import RuntimeConfig, ServingRuntime
from repro.serve.telemetry import TelemetryBus

__all__ = ["ShardRuntime", "guarded_shard", "shard_name"]


def shard_name(shard_id: int) -> str:
    """A shard's name (``"shard03"``): its bus's, its breaker's and the
    fault-plan target's, and the router's ``assigned.<name>`` gauge key."""
    return f"shard{shard_id:02d}"


class ShardRuntime(ServingRuntime):
    """A fabric shard: a :class:`ServingRuntime` without hooks or auditor
    (``n_workers`` models the shard's service parallelism)."""

    def __init__(
        self,
        shard_id: int,
        backend: Backend,
        *,
        config: RuntimeConfig | None,
        telemetry: TelemetryBus | None,
        n_workers: int,
        breaker: CircuitBreaker | None,
    ) -> None:
        super().__init__(
            backend, config=config, telemetry=telemetry, n_workers=n_workers, breaker=breaker
        )
        self.shard_id = shard_id
        self.name = shard_name(shard_id)
        self.telemetry.attach_gauge("shard", self.stats)
        if self.breaker is not None:
            self.telemetry.attach_gauge("shard_breaker", self.breaker.stats)

    def healthy(self, at_ms: float) -> bool:
        """Routing-time health peek: would this shard accept traffic?

        Non-mutating (unlike :meth:`CircuitBreaker.allow`): an OPEN
        breaker whose cooldown has elapsed reports healthy here, and the
        actual OPEN -> HALF_OPEN transition happens when the routed
        request reaches :meth:`submit`.
        """
        return self.breaker is None or self.breaker.would_allow(at_ms)

    def stats(self) -> dict[str, float]:
        """Gauge-friendly shard summary (numbers only)."""
        return {
            "submitted": float(self.submitted),
            "served": float(self.served),
            "errors": float(self.errors),
            "span_ms": float(self.span_ms),
            "workers": float(self.n_workers),
            "breaker_trips": float(
                self.breaker.trips if self.breaker is not None else 0
            ),
        }


def guarded_shard(
    shard_id: int,
    backend: Backend,
    *,
    config: RuntimeConfig | None,
    telemetry: TelemetryBus,
    injector: FaultInjector | None = None,
    n_workers: int = 1,
) -> ShardRuntime:
    """A shard behind its own circuit breaker on its own virtual clock --
    and, given a fault ``injector``, with its backend wrapped under the
    shard-named target (``"shard03"``) fault plans address."""
    name = shard_name(shard_id)
    if injector is not None:
        backend = injector.wrap_backend(backend, target=name)
    breaker = CircuitBreaker(failure_threshold=3, cooldown_ms=500.0, name=name)
    return ShardRuntime(
        shard_id, backend, config=config, telemetry=telemetry, n_workers=n_workers, breaker=breaker
    )
