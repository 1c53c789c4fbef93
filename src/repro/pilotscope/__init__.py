"""PilotScope middleware (paper §3, [80]).

An AI4DB middleware decoupling ML drivers from database internals:

- :class:`repro.pilotscope.console.PilotScopeConsole` -- operates the whole
  system: registers drivers, starts/stops them, and executes user SQL
  transparently (the user never sees which driver served a query);
- :class:`repro.pilotscope.driver.Driver` -- the programming model: a task
  overrides ``init()`` (preparation + injection type) and ``algo()`` (the
  AI4DB algorithm consulting ML models and interacting with the database);
- :class:`repro.pilotscope.interactor.DBInteractor` /
  :class:`repro.pilotscope.interactor.PilotSession` -- the unified
  interface between drivers and databases, exposing *push* operators
  (enforce actions: inject cardinalities, set hints, scale knobs) and
  *pull* operators (fetch data: sub-queries, plans, execution results);
- :class:`repro.pilotscope.postgres_sim.SimulatedPostgreSQL` -- the
  per-database implementation of the interactor (our engine's equivalent
  of the lightweight PostgreSQL patches);
- :mod:`repro.pilotscope.drivers` -- the two representative applications
  demonstrated in the tutorial: batch cardinality injection for any
  learned estimator, plus Bao and Lero drivers assembled purely from
  push/pull operators.
"""

from repro.pilotscope.postgres_sim import SimulatedPostgreSQL
from repro.pilotscope.driver import Driver
from repro.pilotscope.console import PilotScopeConsole
from repro.pilotscope.drivers import (
    BaoDriver,
    CardinalityInjectionDriver,
    LeroDriver,
)

__all__ = [
    "SimulatedPostgreSQL",
    "Driver",
    "PilotScopeConsole",
    "CardinalityInjectionDriver",
    "BaoDriver",
    "LeroDriver",
]
