"""Versioned model registry: content-hashed, immutable lineage.

Lehmann et al. ("Is Your Learned Query Optimizer Behaving As You
Expect?") argue that a retrained model is a *new artifact* that must be
re-evaluated before it touches traffic.  :class:`ModelRegistry` is the
bookkeeping that makes that possible:

- every registered model becomes a :class:`ModelVersion` with a
  **content-derived version id** (a digest of the model's parameters via
  :func:`model_fingerprint`, its parent, trigger and training-data
  snapshot), so identical training runs produce identical ids and the
  registry export is byte-stable across same-seed runs;
- versions are **immutable**: the registry remembers each model's
  fingerprint at registration and :meth:`verify` re-fingerprints it on
  demand -- the lifecycle tests use this to prove retraining clones the
  champion instead of mutating it in place;
- **lineage** links every version to its parent, its trigger reason
  (which drift/q-error/cadence policy fired), its experience-store
  snapshot id, its :class:`~repro.lifecycle.gates.GateReport` metrics and
  its deployment stage history (recorded back by
  :meth:`repro.serve.deployment.DeploymentManager.deploy` / promote /
  rollback);
- :meth:`to_json` exports the whole registry deterministically (the
  artifact the ``bench-smoke`` (p4) CI job diffs across two runs).

Nothing wall-clock enters the registry: ``created_at_ms`` is the
scheduler's *virtual* time, and ordering is by registration sequence.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.errors import ConfigError
from repro.core.interfaces import ServePolicy

if TYPE_CHECKING:
    from repro.lifecycle.gates import GateReport

__all__ = ["ModelVersion", "ModelRegistry", "model_fingerprint"]

#: object-graph walk bounds; generous for every model in the repo while
#: keeping a pathological cycle-free but huge graph from stalling.  Running
#: out of steps or of depth is an error, never a digest: a hash that
#: stopped early is equal for models that differ past the stopping point.
_MAX_NODES = 200_000
_MAX_DEPTH = 16


class _WalkIncomplete(Exception):
    """The walk used up its ``_MAX_NODES`` steps or went past ``_MAX_DEPTH``."""


def _fields(obj) -> dict:
    """An object's instance state: its ``__dict__`` plus every ``__slots__``
    field set along the MRO."""
    fields = dict(getattr(obj, "__dict__", {}))
    for cls in type(obj).__mro__:
        slots = cls.__dict__.get("__slots__", ())
        for name in (slots,) if isinstance(slots, str) else slots:
            if name in ("__dict__", "__weakref__"):
                continue
            if name.startswith("__") and not name.endswith("__"):
                name = f"_{cls.__name__.lstrip('_')}{name}"  # mangled
            if hasattr(obj, name):
                fields[name] = getattr(obj, name)
    return fields


def _walk(obj, h, seen: set[int], budget: list[int], depth: int, skip: dict) -> None:
    if budget[0] <= 0:
        raise _WalkIncomplete(f"an object graph of more than {_MAX_NODES} nodes")
    if depth > _MAX_DEPTH:
        raise _WalkIncomplete(f"an object graph deeper than {_MAX_DEPTH} levels")
    budget[0] -= 1
    if id(obj) in skip:
        h.update(b"~shared")
        return
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        h.update(repr(obj).encode())
        return
    if isinstance(obj, float):
        h.update(repr(obj).encode())  # shortest-roundtrip repr; covers nan/inf
        return
    if isinstance(obj, np.ndarray):
        h.update(obj.dtype.str.encode())
        h.update(repr(obj.shape).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
        return
    if isinstance(obj, (np.generic,)):
        h.update(repr(obj).encode())
        return
    if id(obj) in seen:
        h.update(b"~cycle")
        return
    seen.add(id(obj))
    if isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj, key=repr):
            h.update(repr(key).encode())
            _walk(obj[key], h, seen, budget, depth + 1, skip)
        h.update(b"}")
    elif isinstance(obj, (list, tuple, deque)):
        if isinstance(obj, deque):
            h.update(f"deque{obj.maxlen}".encode())
        h.update(b"[")
        for item in obj:
            _walk(item, h, seen, budget, depth + 1, skip)
        h.update(b"]")
    elif isinstance(obj, (set, frozenset)):
        h.update(b"<")
        for item in sorted(obj, key=repr):
            h.update(repr(item).encode())
        h.update(b">")
    elif isinstance(obj, np.random.Generator):
        # No __dict__: its draws so far live in the bit generator's state.
        h.update(b"Generator(")
        _walk(obj.bit_generator.state, h, seen, budget, depth + 1, skip)
        h.update(b")")
    else:
        # An object by its fields; a lock, a generator function's iterator,
        # a builtin, ...: by its type name alone.
        h.update(type(obj).__name__.encode())
        fields = _fields(obj)
        if fields or hasattr(obj, "__dict__"):
            h.update(b"(")
            for key in sorted(fields):
                h.update(key.encode())
                _walk(fields[key], h, seen, budget, depth + 1, skip)
            h.update(b")")
    seen.discard(id(obj))


def model_fingerprint(model, *, shared=()) -> str:
    """Deterministic 16-hex digest of a model's parameter content.

    Recursively walks the object graph hashing primitives and numpy
    arrays; objects are walked through their ``__dict__`` and their
    ``__slots__``, deques as sequences (with their ``maxlen``) and numpy
    ``Generator``s through their bit generator's state, so a draw or an
    appended observation changes the digest.  Objects in ``shared`` (the
    database, the native optimizer, the simulator -- infrastructure every
    version points at but does not own) are replaced by a marker so a
    drifting database does not change a frozen model's fingerprint.  Two
    structurally identical models fingerprint identically in any process,
    which is what makes version ids content-derived rather than
    wall-clock-derived.

    Raises :class:`~repro.core.errors.ConfigError` when the model's graph
    is larger than ``_MAX_NODES`` steps or deeper than ``_MAX_DEPTH``: the
    digest would not cover all of it, so two different models could share
    a version id.
    """
    h = hashlib.sha256()
    try:
        _walk(
            model,
            h,
            seen=set(),
            budget=[_MAX_NODES],
            depth=0,
            skip={id(o): o for o in shared},
        )
    except _WalkIncomplete as cut:
        raise ConfigError(
            f"model_fingerprint: {type(model).__name__} is {cut}, too large to "
            "hash in full; keep its parameters in arrays or list its "
            "infrastructure in `shared`"
        ) from None
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class ModelVersion:
    """One immutable registry entry."""

    version_id: str
    seq: int  # registration order (0 = first)
    parent: str | None
    trigger: str  # why this version exists ("initial", "retrain:drift...", ...)
    snapshot_id: str  # experience-store snapshot the training saw
    created_at_ms: float  # scheduler virtual time
    fingerprint: str  # content digest at registration

    def to_dict(self) -> dict:
        return {
            "version_id": self.version_id,
            "seq": self.seq,
            "parent": self.parent,
            "trigger": self.trigger,
            "snapshot_id": self.snapshot_id,
            "created_at_ms": self.created_at_ms,
            "fingerprint": self.fingerprint,
        }


class ModelRegistry(ServePolicy):
    """Registry of model versions with lineage, gating and stage history."""

    def __init__(self, *, telemetry, shared=()) -> None:
        """``shared`` lists infrastructure objects excluded from
        fingerprints (see :func:`model_fingerprint`); ``telemetry`` is the
        bus receiving ``model_registered`` / ``champion_changed`` events."""
        self.shared = tuple(shared)
        self.telemetry = telemetry
        self._versions: dict[str, ModelVersion] = {}
        self._models: dict[str, object] = {}
        self._order: list[str] = []
        self._gates: dict[str, dict] = {}
        self._stages: dict[str, list[dict]] = {}
        self.champion_id: str | None = None

    # -- registration ---------------------------------------------------------

    def register(
        self,
        model,
        *,
        parent: str | None = None,
        trigger: str = "initial",
        snapshot_id: str = "",
        created_at_ms: float = 0.0,
    ) -> ModelVersion:
        """Freeze ``model`` as a new immutable version and return it."""
        if parent is not None and parent not in self._versions:
            raise ConfigError(f"unknown parent version {parent!r}")
        seq = len(self._order)
        fingerprint = model_fingerprint(model, shared=self.shared)
        version_id = hashlib.sha256(
            f"{fingerprint}|{parent}|{trigger}|{snapshot_id}|{seq}".encode()
        ).hexdigest()[:12]
        version = ModelVersion(
            version_id=version_id,
            seq=seq,
            parent=parent,
            trigger=trigger,
            snapshot_id=snapshot_id,
            created_at_ms=float(created_at_ms),
            fingerprint=fingerprint,
        )
        self._versions[version_id] = version
        self._models[version_id] = model
        self._order.append(version_id)
        self._stages[version_id] = []
        self.telemetry.incr("registry.versions")
        self.telemetry.event(
            "model_registered",
            version=version_id,
            parent=parent or "",
            trigger=trigger,
            snapshot=snapshot_id,
            seq=seq,
        )
        return version

    # -- lookup ---------------------------------------------------------------

    def version(self, version_id: str) -> ModelVersion:
        try:
            return self._versions[version_id]
        except KeyError:
            raise ConfigError(f"unknown version {version_id!r}") from None

    def model(self, version_id: str):
        self.version(version_id)  # raise uniformly on unknown ids
        return self._models[version_id]

    def versions(self) -> list[ModelVersion]:
        return [self._versions[v] for v in self._order]

    def lineage(self, version_id: str) -> list[ModelVersion]:
        """Ancestry chain root -> ... -> ``version_id``."""
        chain: list[ModelVersion] = []
        cur: str | None = version_id
        while cur is not None:
            v = self.version(cur)
            chain.append(v)
            cur = v.parent
        chain.reverse()
        return chain

    # -- immutability ----------------------------------------------------------

    def verify(self, version_id: str) -> bool:
        """True when the stored model still matches its registration
        fingerprint -- i.e. nobody mutated the frozen artifact."""
        v = self.version(version_id)
        return model_fingerprint(self._models[version_id], shared=self.shared) == (
            v.fingerprint
        )

    # -- champion & lifecycle feedback ----------------------------------------

    def set_champion(self, version_id: str, *, reason: str = "") -> None:
        self.version(version_id)
        previous = self.champion_id
        self.champion_id = version_id
        if previous != version_id:
            self.telemetry.incr("registry.champion_changes")
            self.telemetry.event(
                "champion_changed",
                version=version_id,
                previous=previous or "",
                reason=reason,
            )

    def record_stage(
        self, version_id: str, stage: str, *, reason: str = "", at_query: int = 0
    ) -> None:
        """Deployment lineage: the manager reports every transition here.

        Reaching ``live`` makes the version the registry champion -- the
        base the next retraining clones from.
        """
        self.version(version_id)
        self._stages[version_id].append(
            {"stage": stage, "reason": reason, "at_query": int(at_query)}
        )
        if stage == "live":
            self.set_champion(version_id, reason=f"promoted_live:{reason}")

    def on_transition(self, deployment, stage, reason: str) -> None:
        """File every stage change under the deployed model's version."""
        if deployment.model_version is not None:
            self.record_stage(
                deployment.model_version,
                stage.value,
                reason=reason,
                at_query=deployment.queries_served,
            )

    def record_gate(self, version_id: str, report: GateReport) -> None:
        """Attach an :class:`~repro.lifecycle.gates.GateReport` to a version."""
        self.version(version_id)
        self._gates[version_id] = report.to_dict()

    def stage_history(self, version_id: str) -> list[dict]:
        return list(self._stages.get(version_id, []))

    def gate_report(self, version_id: str) -> dict | None:
        return self._gates.get(version_id)

    # -- export ---------------------------------------------------------------

    def stats(self) -> dict[str, float]:
        gates = list(self._gates.values())
        return {
            "versions": len(self._order),
            "gates_recorded": len(gates),
            "gates_passed": sum(1 for g in gates if g.get("passed")),
            "gates_failed": sum(1 for g in gates if not g.get("passed")),
        }

    def snapshot(self) -> dict:
        """Deterministic state dump (registration order)."""
        return {
            "champion": self.champion_id or "",
            "versions": [
                {
                    **self._versions[vid].to_dict(),
                    "stages": self._stages[vid],
                    "gate": self._gates.get(vid),
                }
                for vid in self._order
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), sort_keys=True, separators=(",", ":"))

    def __len__(self) -> int:
        return len(self._order)
