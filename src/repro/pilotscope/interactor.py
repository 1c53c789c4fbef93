"""The DB interactor: PilotScope's unified driver <-> database interface.

The interactor "shields the underlying details of different databases and
serves as a unified bridge for drivers" (§3.1).  It abstracts two operator
families on a per-session basis:

- **push** operators enforce actions on the database for the session:
  inject sub-query cardinalities, set an operator hint set, scale the
  estimator, change configuration knobs;
- **pull** operators fetch data: the sub-queries the planner will cost,
  the plan the optimizer would pick, execution results, statistics.

Every concrete database (here: the simulated PostgreSQL) implements
:class:`DBInteractor` by returning its own :class:`PilotSession`
subclass; drivers only ever touch the abstract surface, which is what
lets one driver steer any database.

Executing a plan yields one record, the engine's
:class:`~repro.engine.simulator.ExecutionResult` (plan, latency,
cardinality, per-node feedback): ``pull_execution`` and
``execute_default`` return it, and so do ``Driver.algo`` and
``PilotScopeConsole.execute`` above them -- nothing re-wraps it.
"""

from __future__ import annotations

import abc

from repro.core.errors import SessionClosedError
from repro.engine.plans import Plan
from repro.engine.simulator import ExecutionResult
from repro.optimizer.hints import HintSet
from repro.sql.query import Query

__all__ = ["DBInteractor", "PilotSession"]


class PilotSession(abc.ABC):
    """One interaction session (a dedicated database connection).

    Push state is session-scoped and cleared on :meth:`close`, matching
    PilotScope's session semantics (each ML<->DB interaction opens a fresh
    connection whose injected state cannot leak into other users' queries).
    """

    def __init__(self) -> None:
        self.closed = False

    def _check_open(self) -> None:
        if self.closed:
            raise SessionClosedError("session is closed")

    # -- push operators ---------------------------------------------------------

    @abc.abstractmethod
    def push_cardinalities(self, cards: dict[str, float]) -> None:
        """Inject sub-query cardinalities (key: canonical sub-query SQL)."""

    @abc.abstractmethod
    def push_hint_set(self, hints: HintSet) -> None:
        """Force an operator hint set for subsequent planning."""

    @abc.abstractmethod
    def push_cardinality_scale(self, factor: float) -> None:
        """Scale the native estimator's outputs (Lero's knob)."""

    @abc.abstractmethod
    def push_config(self, key: str, value) -> None:
        """Set a configuration knob (e.g. planning algorithm)."""

    # -- pull operators -----------------------------------------------------------

    @abc.abstractmethod
    def pull_subqueries(self, query: Query) -> list[Query]:
        """All connected sub-queries the planner will request cardinalities
        for (single tables and connected joins)."""

    @abc.abstractmethod
    def pull_plan(self, query: Query) -> Plan:
        """The plan the optimizer picks under the session's pushed state."""

    @abc.abstractmethod
    def pull_execution(self, plan: Plan) -> ExecutionResult:
        """Execute a specific plan and return full execution feedback."""

    @abc.abstractmethod
    def pull_native_estimate(self, query: Query) -> float:
        """The native estimator's cardinality estimate (pre-injection)."""

    # -- lifecycle -------------------------------------------------------------------

    @abc.abstractmethod
    def reset_pushes(self) -> None:
        """Drop all pushed state (between queries of one session)."""

    def close(self) -> None:
        self.reset_pushes()
        self.closed = True

    def __enter__(self) -> "PilotSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class DBInteractor(abc.ABC):
    """Factory for sessions against one concrete database."""

    @abc.abstractmethod
    def open_session(self) -> PilotSession:
        ...

    @abc.abstractmethod
    def execute_default(self, query: Query) -> ExecutionResult:
        """Run a query entirely natively (no driver involvement)."""
