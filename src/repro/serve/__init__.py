"""Online serving runtime with staged model deployment (ROADMAP: serving).

The deployment half of the paper's PilotScope story: everything the rest
of the repo builds (optimizers, estimators, guards) assumed a
run-to-completion loop; this package serves a sustained concurrent
workload and manages a learned optimizer's production lifecycle:

- :mod:`repro.serve.runtime` -- :class:`ServingRuntime`: the one serving
  core.  ``submit(request)`` is the per-request path (admission control,
  optional breaker, any :class:`repro.core.interfaces.Backend`,
  telemetry) and yields one :class:`Served` or typed :class:`Rejected`
  per request -- the object the caller gets is the trace the bus keeps;
  ``run(schedule)`` loops a multi-session workload through it in
  deterministic order (see the module docstring for the admission table);
- :mod:`repro.serve.deployment` -- :class:`DeploymentManager`: stages a
  learned optimizer through SHADOW -> CANARY -> LIVE with a rolling
  regression window that demotes it to ROLLED_BACK automatically,
  reusing :mod:`repro.regression` guards on the serving path; ``serve``
  returns the one :class:`repro.core.interfaces.Decision` per query;
- :mod:`repro.serve.telemetry` -- :class:`TelemetryBus`: counters,
  p50/p95/p99 histograms, per-request traces (the runtime's outcomes,
  exported as rows of plan source, estimator tag, cardinality-cache
  hit/miss deltas) and lifecycle events, as a deterministic
  ``snapshot()``;
- :mod:`repro.serve.scenarios` -- canned steady-state / injected-regression
  / prepared-statement / chaos / bound-guard / adversarial-drift setups
  used by ``benchmarks/bench_p2_serving.py``, ``bench_p3_chaos.py``,
  ``bench_p8_bounds.py`` and the tests;
- :mod:`repro.serve.fabric` -- the horizontally sharded, multi-tenant
  serving fabric: N serving cores (:class:`ShardRuntime`) behind QoS-aware
  routing.  Import fabric names from that package.

Exported here: the names some module outside this package imports through
it (``tests/test_census.py`` holds that line); anything else is imported
from the module that defines it.
"""

from repro.serve.deployment import DeploymentManager, Stage
from repro.serve.fabric import ShardRuntime, sharded_fabric_scenario
from repro.serve.runtime import (
    ConsoleBackend,
    Rejected,
    Request,
    RuntimeConfig,
    Served,
    ServingRuntime,
    build_schedule,
)
from repro.serve.scenarios import (
    adversarial_drift_scenario,
    bound_guard_scenario,
    chaos_scenario,
    injected_regression_scenario,
    parameterized_scenario,
    steady_state_scenario,
)
from repro.serve.telemetry import Histogram, TelemetryBus

__all__ = [
    "ConsoleBackend",
    "DeploymentManager",
    "Histogram",
    "Rejected",
    "Request",
    "RuntimeConfig",
    "Served",
    "ServingRuntime",
    "ShardRuntime",
    "Stage",
    "TelemetryBus",
    "adversarial_drift_scenario",
    "bound_guard_scenario",
    "build_schedule",
    "chaos_scenario",
    "injected_regression_scenario",
    "parameterized_scenario",
    "sharded_fabric_scenario",
    "steady_state_scenario",
]
