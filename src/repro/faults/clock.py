"""Virtual time for the resilience subsystem.

All durations in the chaos/resilience layer (latency spikes, breaker
cooldowns, retry backoff) are *virtual milliseconds* on a shared
:class:`VirtualClock`, never wall clock: whoever owns the timeline (the
fault injector for injected latencies, the deployment manager for served
latencies) advances the clock explicitly, so two runs that make the same
calls see the same time -- the property the serving determinism gate
asserts.
"""

from __future__ import annotations

from repro.core.errors import ConfigError

__all__ = ["VirtualClock"]


class VirtualClock:
    """A monotonically advancing virtual-millisecond clock."""

    def __init__(self) -> None:
        self._now_ms = 0.0

    def now_ms(self) -> float:
        return self._now_ms

    def advance(self, ms: float) -> float:
        """Move time forward by ``ms`` milliseconds; returns the new time."""
        ms = float(ms)
        if ms < 0:
            raise ConfigError(f"cannot advance a clock backwards ({ms} ms)")
        self._now_ms += ms
        return self._now_ms

    def __repr__(self) -> str:
        return f"VirtualClock(now_ms={self._now_ms:g})"
