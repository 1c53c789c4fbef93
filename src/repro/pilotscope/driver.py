"""The driver programming model (paper §3.2).

    "For each new driver, we only need to override: 1) an init() function
    to make some preparations and specify its injection type, and 2) an
    algo() function to describe the AI4DB algorithm."

A :class:`Driver` packages one AI4DB task.  The console calls
:meth:`Driver.init` once when the driver starts, then :meth:`Driver.algo`
for every user query routed to it.  Drivers may implement
``collect_training_data`` / ``train`` for the workflow's data-collection
and training phases, and ``background_update`` for keeping models fresh.
"""

from __future__ import annotations

import abc
from repro.core.errors import DriverError
from repro.engine.simulator import ExecutionResult
from repro.pilotscope.interactor import DBInteractor
from repro.sql.query import Query

__all__ = ["Driver"]


class Driver(abc.ABC):
    """Base class for AI4DB drivers.

    ``injection_type`` declares which database component the driver
    replaces: ``"cardinality"`` (sub-query cardinality injection) or
    ``"query_optimizer"`` (end-to-end plan selection).
    """

    injection_type: str = "query_optimizer"
    name: str = "driver"

    def __init__(self) -> None:
        self.interactor: DBInteractor | None = None
        self.started = False

    # -- lifecycle ---------------------------------------------------------------

    def init(self, interactor: DBInteractor) -> None:
        """Prepare the driver: bind the interactor."""
        self.interactor = interactor
        self._prepare()
        self.started = True

    def _prepare(self) -> None:
        """Subclass hook for init-time preparation (default: nothing)."""

    def _require_started(self) -> DBInteractor:
        if not self.started or self.interactor is None:
            raise DriverError(
                f"driver {self.name!r} used before init() -- start it via the console"
            )
        return self.interactor

    # -- the algorithm -----------------------------------------------------------------

    @abc.abstractmethod
    def algo(self, query: Query) -> ExecutionResult:
        """Serve one user query, interacting via push/pull operators."""

    # -- optional workflow phases ----------------------------------------------------

    def collect_training_data(self, queries: list[Query]) -> None:
        """Data-collection phase (default: no-op)."""

    def train(self) -> None:
        """Model-training phase (default: no-op)."""

    def background_update(self) -> None:
        """Periodic background model refresh (default: no-op)."""
