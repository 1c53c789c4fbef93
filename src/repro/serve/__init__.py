"""Online serving runtime with staged model deployment (ROADMAP: serving).

The deployment half of the paper's PilotScope story: everything the rest
of the repo builds (optimizers, estimators, guards) assumed a
run-to-completion loop; this package serves a sustained concurrent
workload and manages a learned optimizer's production lifecycle:

- :mod:`repro.serve.runtime` -- :class:`ServingRuntime`: the one serving
  core.  ``submit(request)`` is the per-request path (admission control
  with typed :class:`Rejected` outcomes, optional breaker, any
  :class:`repro.core.interfaces.Backend`, telemetry); ``run(schedule)``
  loops a multi-session workload through it in deterministic order (see
  the module docstring for the admission table);
- :mod:`repro.serve.deployment` -- :class:`DeploymentManager`: stages a
  learned optimizer through SHADOW -> CANARY -> LIVE with a rolling
  regression window that demotes it to ROLLED_BACK automatically,
  reusing :mod:`repro.regression` guards on the serving path;
- :mod:`repro.serve.telemetry` -- :class:`TelemetryBus`: counters,
  p50/p95/p99 histograms, per-query traces (plan source, estimator tag,
  cardinality-cache hit/miss deltas) and lifecycle events, exported as a
  deterministic ``snapshot()``;
- :mod:`repro.serve.scenarios` -- canned steady-state / mid-stream-drift /
  injected-regression / chaos setups used by
  ``benchmarks/bench_p2_serving.py``, ``benchmarks/bench_p3_chaos.py``
  and the tests;
- :mod:`repro.serve.fabric` -- the horizontally sharded, multi-tenant
  serving fabric (:class:`ServingFabric`, :class:`ShardRouter`,
  :class:`TenantRegistry`, :class:`TelemetryAggregator`): N serving
  cores (:class:`ShardRuntime`) behind QoS-aware routing.
"""

from repro.serve.deployment import DeploymentManager, ServeDecision, Stage
from repro.serve.fabric import (
    FabricConfig,
    FabricReport,
    FabricRequest,
    ServingFabric,
    ShardRouter,
    ShardRuntime,
    TelemetryAggregator,
    TenantRegistry,
    TenantSpec,
    build_fabric_schedule,
    sharded_fabric_scenario,
    synthetic_fabric,
)
from repro.serve.runtime import (
    ConsoleBackend,
    Rejected,
    Request,
    RunReport,
    RuntimeConfig,
    Served,
    ServingRuntime,
    build_schedule,
)
from repro.serve.scenarios import (
    PlannerBackend,
    RegressionInjector,
    ServingScenario,
    adversarial_drift_scenario,
    bound_guard_scenario,
    chaos_scenario,
    default_bound_fault_plan,
    default_chaos_plan,
    drift_scenario,
    injected_regression_scenario,
    parameterized_scenario,
    steady_state_scenario,
)
from repro.serve.telemetry import Histogram, TelemetryBus, TraceRecord

__all__ = [
    "ConsoleBackend",
    "DeploymentManager",
    "FabricConfig",
    "FabricReport",
    "FabricRequest",
    "PlannerBackend",
    "Histogram",
    "ServingFabric",
    "ShardRouter",
    "ShardRuntime",
    "TelemetryAggregator",
    "TenantRegistry",
    "TenantSpec",
    "Rejected",
    "RegressionInjector",
    "Request",
    "RunReport",
    "RuntimeConfig",
    "ServeDecision",
    "Served",
    "ServingRuntime",
    "ServingScenario",
    "Stage",
    "TelemetryBus",
    "TraceRecord",
    "adversarial_drift_scenario",
    "bound_guard_scenario",
    "build_fabric_schedule",
    "build_schedule",
    "chaos_scenario",
    "default_bound_fault_plan",
    "default_chaos_plan",
    "drift_scenario",
    "injected_regression_scenario",
    "parameterized_scenario",
    "sharded_fabric_scenario",
    "steady_state_scenario",
    "synthetic_fabric",
]
