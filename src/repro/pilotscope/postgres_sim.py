"""The simulated-PostgreSQL implementation of the DB interactor.

Plays the role of the "lightweight patches to the database codebase"
PilotScope ships for PostgreSQL: it wires the push/pull operators into the
native optimizer's two steering surfaces (estimator wrapper, hint sets)
and the execution simulator.
"""

from __future__ import annotations

from repro.core.errors import ConfigError
from repro.core.interfaces import InjectedCardinalities, ScaledCardinalities
from repro.engine.plans import Plan
from repro.engine.simulator import ExecutionResult, ExecutionSimulator
from repro.optimizer.hints import HintSet
from repro.optimizer.planner import Optimizer
from repro.pilotscope.interactor import DBInteractor, PilotSession
from repro.sql.query import Query
from repro.storage.catalog import Database

__all__ = ["SimulatedPostgreSQL"]


class _SimSession(PilotSession):
    def __init__(self, host: "SimulatedPostgreSQL") -> None:
        super().__init__()
        self.host = host
        self._injected = InjectedCardinalities(host.optimizer.estimator)
        self._scale: float | None = None
        self._hints: HintSet | None = None
        self._config: dict[str, object] = {"algorithm": "dp"}

    # -- push ------------------------------------------------------------------

    def push_cardinalities(self, cards: dict[str, float]) -> None:
        self._check_open()
        self._injected.inject_batch(cards)

    def push_hint_set(self, hints: HintSet) -> None:
        self._check_open()
        self._hints = hints

    def push_cardinality_scale(self, factor: float) -> None:
        self._check_open()
        if factor <= 0:
            raise ConfigError("scale factor must be positive")
        self._scale = factor

    def push_config(self, key: str, value) -> None:
        self._check_open()
        if key not in ("algorithm",):
            raise KeyError(f"unknown config knob {key!r}")
        self._config[key] = value

    # -- session-effective planner ------------------------------------------------

    def _effective_optimizer(self) -> Optimizer:
        estimator = self._injected
        if self._scale is not None and self._scale != 1.0:
            estimator = ScaledCardinalities(estimator, self._scale)
        return self.host.optimizer.with_estimator(estimator)

    # -- pull ----------------------------------------------------------------------

    def pull_subqueries(self, query: Query) -> list[Query]:
        self._check_open()
        return query.connected_subqueries()

    def pull_plan(self, query: Query) -> Plan:
        self._check_open()
        return self._effective_optimizer().plan(
            query,
            hints=self._hints,
            algorithm=str(self._config["algorithm"]),
        )

    def pull_execution(self, plan: Plan) -> ExecutionResult:
        self._check_open()
        return self.host.simulator.execute(plan)

    def pull_native_estimate(self, query: Query) -> float:
        self._check_open()
        return self.host.optimizer.estimator.estimate(query)

    # -- lifecycle --------------------------------------------------------------------

    def reset_pushes(self) -> None:
        self._injected.clear()
        self._scale = None
        self._hints = None
        self._config = {"algorithm": "dp"}


class SimulatedPostgreSQL(DBInteractor):
    """DB interactor over the in-repo engine (optimizer + simulator)."""

    def __init__(self, db: Database) -> None:
        self.db = db
        self.optimizer = Optimizer(db)
        self.simulator = ExecutionSimulator(db)

    def open_session(self) -> PilotSession:
        return _SimSession(self)

    def execute_default(self, query: Query) -> ExecutionResult:
        return self.simulator.execute(self.optimizer.plan(query))
