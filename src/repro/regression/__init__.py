"""Performance-regression elimination (paper §2.2.2).

Plugins deployed *on top of* any learned optimizer that decide, per query,
whether the learned plan is safe to run or the native plan should be kept:

- :class:`Eraser` [62]: two-stage -- a coarse filter rejecting plans with
  (nearly) unseen structural features, then plan clustering with
  per-cluster reliability tracking;
- :class:`PerfGuard` [18]: a learned pairwise guard predicting whether the
  candidate would regress against the native plan;
- :class:`GuardChain`: stacks several guards into one (applied in order,
  feedback fanned out to all), so a deployment can run Eraser's structural
  filter and PerfGuard's learned veto together.

Eraser and PerfGuard each implement the whole guard interface of
:class:`repro.e2e.loop.OptimizationLoop` and
:class:`repro.serve.DeploymentManager` (a chain its call and feedback
part): called as
``guard(query, candidate, native_plan)`` before execution, then
``guard.record(query, candidate, latency, native_latency)`` and, when the
native plan differed, ``guard.record_native(query, native_plan,
native_latency)`` after (a guard with no use for the native side takes it
and does nothing); ``decisions``, ``interventions`` and
``intervention_rate`` count its vetoes.  The guards learn which plans to
distrust from the same feedback stream the optimizer itself consumes.
"""

from repro.regression.chain import GuardChain
from repro.regression.eraser import Eraser
from repro.regression.perfguard import PerfGuard

__all__ = ["Eraser", "GuardChain", "PerfGuard"]
