"""Bounded, seeded experience store feeding the retraining loop.

Neo's core observation (Marcus et al., VLDB 2019) is that a learned
optimizer only stays competitive if execution feedback continuously flows
back into training.  :class:`ExperienceStore` is where that feedback
accumulates: the e2e :class:`~repro.e2e.loop.OptimizationLoop` and the
:class:`~repro.serve.deployment.DeploymentManager` both hand it the
:class:`~repro.core.interfaces.Decision` they produce per query, as a
policy (``kind="episode"`` and ``kind="serve"``), and the
:class:`~repro.cardest.drift.Warper` deposits
the drift-targeted training queries it generated (with their exact
labels).

Three properties the lifecycle determinism contract needs:

- **Dedup** -- records are keyed by ``(kind, query_hash)`` using the one
  repository-wide :func:`repro.sql.query.query_hash` scheme; re-observing
  a query updates the record in place (latest outcome wins, ``hits``
  counts repetitions) instead of growing the store.
- **Bounded with reservoir eviction** -- past ``capacity`` unique records,
  a seeded reservoir sample decides which record a newcomer displaces (or
  whether it is dropped), so the retained set is an unbiased sample of
  everything seen and a pure function of ``(stream, seed)``.
- **Drift tagging** -- after the scheduler's drift trigger fires it flips
  :meth:`mark_drift`; records ingested while the tag is set (and all
  Warper-generated queries) carry ``drift=True`` so retraining can weight
  or filter the post-drift region.

:meth:`snapshot_id` is a stable digest of the retained records -- the
"training-data snapshot id" the :class:`~repro.lifecycle.registry.
ModelRegistry` stores in every version's lineage.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.core.errors import ConfigError
from repro.core.interfaces import ServePolicy
from repro.sql.query import Query, query_hash

__all__ = ["ExperienceRecord", "ExperienceStore"]


@dataclass
class ExperienceRecord:
    """One retained unit of execution feedback.

    ``kind`` distinguishes the three ingestion paths: ``"episode"``
    (offline loop), ``"serve"`` (deployment decisions) and
    ``"drift_query"`` (Warper-generated, exactly labelled).  ``hits``
    counts how many times the same ``(kind, query)`` was observed; the
    other fields always describe the latest observation.
    """

    key: str  # query_hash of ``query``
    kind: str
    query: Query
    source: str
    latency_ms: float | None
    native_latency_ms: float | None
    true_cardinality: float | None
    drift: bool
    hits: int = 1


class ExperienceStore(ServePolicy):
    """Deduplicating, bounded, seeded store of execution feedback."""

    def __init__(self, capacity: int = 5_000, *, seed: int = 0) -> None:
        if capacity < 1:
            raise ConfigError("experience store capacity must be >= 1")
        self.capacity = capacity
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._records: dict[tuple[str, str], ExperienceRecord] = {}
        self._slots: list[tuple[str, str]] = []  # reservoir index -> key
        self.drift_tag = False
        self.ingested = 0  # every add_* call
        self.deduped = 0  # calls that updated an existing record
        self.evicted = 0  # records displaced by the reservoir
        self.dropped = 0  # newcomers the reservoir rejected
        self._unique_seen = 0

    # -- ingestion -------------------------------------------------------------

    def mark_drift(self, tag: bool = True) -> None:
        """Set/clear the drift tag applied to subsequently ingested records."""
        self.drift_tag = tag

    def _ingest(
        self,
        kind: str,
        query: Query,
        *,
        source: str,
        latency_ms: float | None,
        native_latency_ms: float | None,
        true_cardinality: float | None,
        drift: bool,
    ) -> None:
        self.ingested += 1
        key = (kind, query_hash(query))
        existing = self._records.get(key)
        if existing is not None:
            self.deduped += 1
            existing.hits += 1
            existing.source = source
            existing.drift = existing.drift or drift
            if latency_ms is not None:
                existing.latency_ms = latency_ms
            if native_latency_ms is not None:
                existing.native_latency_ms = native_latency_ms
            if true_cardinality is not None:
                existing.true_cardinality = true_cardinality
            return
        record = ExperienceRecord(
            key=key[1],
            kind=kind,
            query=query,
            source=source,
            latency_ms=latency_ms,
            native_latency_ms=native_latency_ms,
            true_cardinality=true_cardinality,
            drift=drift,
        )
        self._unique_seen += 1
        if len(self._records) < self.capacity:
            self._records[key] = record
            self._slots.append(key)
            return
        # Reservoir sampling over unique records: keep the newcomer with
        # probability capacity / unique_seen, displacing a uniformly random
        # retained record -- deterministic given the seed and the stream.
        j = int(self._rng.integers(0, self._unique_seen))
        if j >= self.capacity:
            self.dropped += 1
            return
        victim = self._slots[j]
        del self._records[victim]
        self.evicted += 1
        self._records[key] = record
        self._slots[j] = key

    def add_decision(self, decision, *, kind: str = "serve") -> None:
        """Ingest a :class:`repro.core.interfaces.Decision` that carries
        its ``query``: ``kind="serve"`` from a deployment,
        ``kind="episode"`` from the offline loop."""
        self._ingest(
            kind,
            decision.query,
            source=decision.plan_source,
            latency_ms=float(decision.latency_ms),
            native_latency_ms=(
                float(decision.native_latency_ms)
                if decision.native_latency_ms is not None
                else None
            ),
            true_cardinality=float(decision.cardinality),
            drift=self.drift_tag,
        )

    def attach(self, deployment) -> None:
        deployment.telemetry.attach_gauge("experience_store", self.stats)

    def on_decision(self, deployment, decision) -> None:
        """The retraining loop sees exactly what production saw."""
        self.add_decision(decision, kind="episode" if decision.stage == "offline" else "serve")

    def add_drift_queries(self, queries, cards) -> None:
        """Ingest Warper-generated drift queries, each with its exact
        cardinality (always drift-tagged)."""
        for query, card in zip(queries, cards):
            self._ingest(
                "drift_query",
                query,
                source="warper",
                latency_ms=None,
                native_latency_ms=None,
                true_cardinality=float(card),
                drift=True,
            )

    # -- retrieval -------------------------------------------------------------

    def snapshot_id(self) -> str:
        """Stable 12-hex digest of the retained records (sorted by key)."""
        h = hashlib.sha256()
        for kind, key in sorted(self._records):
            r = self._records[(kind, key)]
            h.update(
                f"{kind}|{key}|{r.hits}|{r.drift}|{r.latency_ms!r}|"
                f"{r.true_cardinality!r}\n".encode()
            )
        return h.hexdigest()[:12]

    def stats(self) -> dict[str, float]:
        """Counters for telemetry gauges and lifecycle reports."""
        return {
            "records": len(self._records),
            "capacity": self.capacity,
            "ingested": self.ingested,
            "deduped": self.deduped,
            "evicted": self.evicted,
            "dropped": self.dropped,
            "drift_records": sum(1 for r in self._records.values() if r.drift),
        }

    def __len__(self) -> int:
        return len(self._records)
