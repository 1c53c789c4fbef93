"""Model lifecycle: experience store, registry, retraining loop, gates.

The tutorial's deployment story ends where most learned-optimizer papers
stop: the model is trained once and benchmarked.  This package is the
*rest* of the lifecycle -- the machinery that keeps a deployed model
honest as data and workloads drift:

- :mod:`~repro.lifecycle.experience` -- a bounded, seeded
  :class:`ExperienceStore` accumulating execution feedback from the
  offline loop, the serving path and the Warper's drift queries;
- :mod:`~repro.lifecycle.registry` -- a :class:`ModelRegistry` of
  content-hashed immutable :class:`ModelVersion`\\ s with full lineage
  (parent, trigger, training-data snapshot, gate verdicts, deployment
  stage history);
- :mod:`~repro.lifecycle.scheduler` -- a virtual-time
  :class:`RetrainingScheduler` composing drift (DDUp), accuracy
  (rolling q-error) and cadence triggers into a clone-retrain-gate
  policy that never mutates the serving champion;
- :mod:`~repro.lifecycle.gates` -- the :class:`EvalGate` that evaluates
  every challenger head-to-head against the champion on held-out
  queries before it may enter staged deployment (always at SHADOW);
- :mod:`~repro.lifecycle.scenario` -- the assembled closed loop
  (:func:`drift_recovery_scenario`) that drifts the database mid-stream
  and recovers, deterministically per seed;
- :mod:`~repro.lifecycle.fleet` -- that same closed loop run as a
  *fleet* (:func:`transfer_fleet_scenario`): one lifecycle stack per
  generated schema, one schema per shard of the sharded serving fabric,
  drifting and recovering concurrently.

Exported here: the names some module outside this package imports through
it (``tests/test_census.py`` holds that line); anything else is imported
from the module that defines it.
"""

from repro.lifecycle.experience import ExperienceStore
from repro.lifecycle.fleet import transfer_fleet_scenario
from repro.lifecycle.gates import EvalGate
from repro.lifecycle.registry import ModelRegistry, model_fingerprint
from repro.lifecycle.scenario import drift_recovery_scenario, lifecycle_stats
from repro.lifecycle.scheduler import (
    CadenceTrigger,
    DriftTrigger,
    QErrorTrigger,
    RetrainingScheduler,
    clone_model,
)

__all__ = [
    "ExperienceStore",
    "EvalGate",
    "ModelRegistry",
    "model_fingerprint",
    "drift_recovery_scenario",
    "lifecycle_stats",
    "transfer_fleet_scenario",
    "CadenceTrigger",
    "DriftTrigger",
    "QErrorTrigger",
    "RetrainingScheduler",
    "clone_model",
]
