"""Execution engine: exact cardinalities, physical plans, latency simulation.

This package is the stand-in for PostgreSQL's executor.  It provides:

- :func:`repro.engine.executor.execute_cardinality` -- exact COUNT(*) of any
  SPJ query over the real (synthetic) data: message passing peels every
  table with one join left, and a cyclic core that remains is materialized
  once per plan, guarded, with lookup joins on unique keys;
- :mod:`repro.engine.plans` -- physical plan trees (scans and binary joins
  with hash/nested-loop/merge methods);
- :class:`repro.engine.simulator.ExecutionSimulator` -- a deterministic
  cost-based latency model evaluated on *true* cardinalities.  Running a
  plan through the simulator is this repo's equivalent of executing it on
  the DBMS: plans picked with bad cardinality estimates really do run
  slower, which is the feedback signal every learned optimizer consumes.
"""

from repro.engine.executor import CardinalityExecutor, execute_cardinality
from repro.engine.plans import JoinMethod, JoinNode, Plan, ScanMethod, ScanNode
from repro.engine.simulator import ExecutionSimulator, SimulatorConfig

__all__ = [
    "CardinalityExecutor",
    "execute_cardinality",
    "JoinMethod",
    "JoinNode",
    "Plan",
    "ScanMethod",
    "ScanNode",
    "ExecutionSimulator",
    "SimulatorConfig",
]
