"""Horizontally sharded, multi-tenant serving fabric (ROADMAP: scale-out).

The paper's "what is next" argument -- learned optimizers must be judged
as production serving systems -- needs serving infrastructure that can
generate production *shape*: many shards, many tenants, load skew,
partial failure.  This package scales the single
:class:`~repro.serve.ServingRuntime` out horizontally while keeping the
repo's core invariant: same seed, byte-identical telemetry export.

- :mod:`repro.serve.fabric.router` -- :class:`ShardRouter`: deterministic
  two-choice placement by canonical query hash or tenant id, skipping
  shards behind open breakers;
- :mod:`repro.serve.fabric.shard` -- :class:`ShardRuntime`: one shard's
  incremental virtual-time runtime (admission, workers, breaker,
  telemetry) driven by the fabric loop;
- :mod:`repro.serve.fabric.tenants` -- :class:`TenantRegistry` /
  :class:`TenantSpec`: per-tenant token-bucket quotas and QoS classes
  (interactive/batch/background) enforced ahead of shard admission;
- :mod:`repro.serve.fabric.fabric` -- :class:`ServingFabric`: the
  deterministic event loop tying quota -> route -> QoS shed -> shard
  together, plus :func:`build_fabric_schedule`.  A fabric request is a
  plain :class:`~repro.serve.Request`; its ``session_id`` names its
  tenant, by registration index in the :class:`TenantRegistry`;
- :mod:`repro.serve.fabric.aggregate` -- :class:`TelemetryAggregator`:
  merges per-shard buses into one export via
  :meth:`repro.serve.TelemetryBus.merged` (order-independent bytes);
- :mod:`repro.serve.fabric.scenarios` -- synthetic (10^5-request scale)
  and full-stack (per-shard deployment manager / plan cache / bound
  guard / breaker) assemblies used by ``benchmarks/bench_p9_fabric.py``
  and the tests.

Exported here: the names some module outside this package imports through
it (``tests/test_census.py`` holds that line); anything else is imported
from the module that defines it.
"""

from repro.serve.fabric.fabric import FabricConfig, build_fabric_schedule
from repro.serve.fabric.router import ShardRouter
from repro.serve.fabric.scenarios import (
    SyntheticBackend,
    default_tenant_specs,
    hot_tenant_specs,
    sharded_fabric_scenario,
    synthetic_fabric,
    synthetic_queries,
)
from repro.serve.fabric.shard import ShardRuntime
from repro.serve.fabric.tenants import TenantRegistry, TenantSpec

__all__ = [
    "FabricConfig",
    "ShardRouter",
    "ShardRuntime",
    "SyntheticBackend",
    "TenantRegistry",
    "TenantSpec",
    "build_fabric_schedule",
    "default_tenant_specs",
    "hot_tenant_specs",
    "sharded_fabric_scenario",
    "synthetic_fabric",
    "synthetic_queries",
]
