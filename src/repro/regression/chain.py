"""Stacking regression guards: several vetoes, one guard interface.

A deployment may want Eraser's structural filter *and* PerfGuard's learned
pairwise veto on the same loop.  :class:`GuardChain` composes any number
of guards into one object satisfying the
:class:`repro.e2e.loop.OptimizationLoop` guard interface: selection runs
the guards in the given order (each sees the previous guard's choice, so
an early veto is final -- once a guard has swapped in the native plan,
later guards pass it through), and feedback fans out to every member so
each keeps learning from the full execution stream.

**Fault containment.**  Guards are learned components too and may throw.
An exception from one guard must not abort the optimization loop
mid-query, so the chain contains it: the failing guard is treated as a
"veto abstain" (the candidate passes through unchanged), the error is
counted (:attr:`GuardChain.errors`, :attr:`GuardChain.last_errors`) and
reported to the attached telemetry bus, and the remaining guards still
run.  The same applies to feedback fan-out -- one guard's broken
``record`` cannot starve the others of training signal.
"""

from __future__ import annotations

from repro.core.framework import CandidatePlan
from repro.engine.plans import Plan
from repro.sql.query import Query

__all__ = ["GuardChain"]


class GuardChain:
    """Apply guards in order; forward feedback to all of them."""

    def __init__(self, *guards, telemetry) -> None:
        if not guards:
            raise ValueError("GuardChain needs at least one guard")
        self.guards = tuple(guards)
        #: the bus contained errors are counted on (the deployment
        #: manager's own)
        self.telemetry = telemetry
        #: per-decision application order, e.g. ["eraser:coarse"] when the
        #: first guard intervened -- kept for tests and telemetry.
        self.last_applied: list[str] = []
        #: total contained guard exceptions (decisions + feedback)
        self.errors = 0
        #: ``(guard_name, error_repr)`` of the most recent decision's
        #: contained exceptions
        self.last_errors: list[tuple[str, str]] = []

    def _contain(self, guard, exc: Exception, phase: str) -> None:
        self.errors += 1
        self.last_errors.append((type(guard).__name__, repr(exc)))
        self.telemetry.incr("guard.errors")
        self.telemetry.incr(f"guard.errors.{phase}")

    def __call__(
        self, query: Query, candidate: CandidatePlan, native_plan: Plan
    ) -> CandidatePlan:
        self.last_applied = []
        self.last_errors = []
        for guard in self.guards:
            try:
                swapped = guard(query, candidate, native_plan)
            except Exception as exc:
                # Contained: a crashing guard abstains from the veto.
                self._contain(guard, exc, "decision")
                continue
            if swapped is not candidate:
                self.last_applied.append(swapped.source)
            candidate = swapped
        return candidate

    def record(
        self,
        query: Query,
        candidate: CandidatePlan,
        latency_ms: float,
        native_latency_ms: float,
    ) -> None:
        for guard in self.guards:
            try:
                guard.record(query, candidate, latency_ms, native_latency_ms)
            except Exception as exc:
                self._contain(guard, exc, "feedback")

    def record_native(
        self, query: Query, native_plan: Plan, native_latency_ms: float
    ) -> None:
        for guard in self.guards:
            try:
                guard.record_native(query, native_plan, native_latency_ms)
            except Exception as exc:
                self._contain(guard, exc, "feedback")

    @property
    def intervention_rate(self) -> float:
        return max(g.intervention_rate for g in self.guards)
