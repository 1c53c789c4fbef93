"""Fabric-wide telemetry aggregation.

:class:`TelemetryAggregator` owns the mapping from source name (the
fabric bus plus one bus per shard) to :class:`~repro.serve.telemetry.
TelemetryBus` and produces one merged export via
:meth:`TelemetryBus.merged`.  All the heavy lifting -- summing counters,
pooling histogram samples (exact up to 65,536 per histogram, decimated
past that -- ROADMAP item 1(a)), re-emitting events with a
``source`` field, namespacing gauges -- lives on the bus classes,
and :meth:`TelemetryBus.merged` composes sources in sorted-name order, so
merge order cannot change the export bytes (the property the determinism
gate relies on).  The aggregator's job is to fix the *source naming*
(``"fabric"``, ``"shard00"``...) so merged gauge/event names are stable.
"""

from __future__ import annotations

from repro.core.errors import ConfigError
from repro.serve.telemetry import TelemetryBus

__all__ = ["TelemetryAggregator"]


class TelemetryAggregator:
    """Merge per-shard buses plus the fabric bus into one export."""

    def __init__(
        self,
        *,
        fabric_bus: TelemetryBus,
        shard_buses: dict[str, TelemetryBus],
    ) -> None:
        self.sources: dict[str, TelemetryBus] = {"fabric": fabric_bus}
        for name, bus in shard_buses.items():
            if name in self.sources:
                raise ConfigError(f"telemetry source {name!r} already registered")
            self.sources[name] = bus

    def merged(self) -> TelemetryBus:
        """One composed bus over all sources (see :meth:`TelemetryBus.merged`)."""
        return TelemetryBus.merged(self.sources)

    def export_json(self, *, include_traces: bool = False) -> str:
        """Deterministic merged export: canonical JSON, sorted keys."""
        return self.merged().to_json(include_traces=include_traces)
