"""The PilotScope console: the single entry point database users touch.

The console registers drivers, starts/stops them, and executes SQL.  From
the user's perspective nothing changes -- ``console.execute(sql)`` returns
the query result either way; whether an AI4DB driver served the query is
fully transparent (§3: "the execution of any AI4DB algorithm is totally
transparent to the database user").

**Resilient dispatch.**  A driver is a learned component and may fail:
raise or lose its connection.  The console survives both:
:class:`repro.core.errors.DriverError` / ``EstimationError`` from
``driver.algo`` are retried under the default
:class:`~repro.faults.resilience.RetryPolicy` with deterministic
exponential backoff (virtual ms, accumulated in
``retry_backoff_total_ms``), and when retries are exhausted the query is
re-served natively, so a broken driver degrades service quality but never
availability.  Unexpected exception types still propagate: the resilience
path is for failures, not for masking bugs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.core.errors import ConfigError, DriverError, EstimationError
from repro.core.records import slot_init
from repro.engine.simulator import ExecutionResult
from repro.faults.resilience import RetryPolicy
from repro.pilotscope.interactor import DBInteractor
from repro.sql.parser import parse_query
from repro.sql.query import Query

__all__ = ["PilotScopeConsole", "QueryLogEntry"]

#: driver failures the dispatch loop treats as transient/retryable
_RETRYABLE = (DriverError, EstimationError)


@slot_init
@dataclass(frozen=True, slots=True)
class QueryLogEntry:
    """One executed user query, for audit / experiments."""

    sql: str
    served_by: str  # driver name or "native"
    cardinality: int
    latency_ms: float


@dataclass
class _DriverSlot:
    driver: object
    active: bool = False


class PilotScopeConsole:
    """Operates drivers and routes user queries."""

    def __init__(
        self,
        interactor: DBInteractor,
        *,
        max_log_entries: int | None = 10_000,
        plan_cache=None,
    ) -> None:
        """``max_log_entries`` caps :attr:`query_log` (oldest entries are
        dropped first) so sustained traffic cannot grow memory without
        bound; ``None`` keeps the log unbounded.  The totals below keep
        counting past the cap.

        ``plan_cache`` is an optional
        :class:`repro.optimizer.PlanCache`: natively-served queries (no
        active driver, or a driver that degraded) reuse compiled plans
        across literal bindings of the same template instead of
        re-planning, keyed on optimizer state and the database's
        ``data_version``.  It needs the simulated-PostgreSQL surface
        (``optimizer`` / ``simulator``) on the interactor."""
        self.interactor = interactor
        self._drivers: dict[str, _DriverSlot] = {}
        self.query_log: deque[QueryLogEntry] = deque(maxlen=max_log_entries)
        self.queries_served = 0
        self.served_by_counts: dict[str, int] = {}
        #: who served the most recent query (driver name or "native"); kept
        #: outside ``query_log`` so it survives any log cap
        self.last_served_by: str | None = None
        self.retry_policy = RetryPolicy()
        self.plan_cache = plan_cache
        self.driver_errors = 0
        self.retries = 0
        self.native_fallbacks = 0
        self.retry_backoff_total_ms = 0.0
        self._updates_every = 0
        self._queries_since_update = 0

    # -- driver management -----------------------------------------------------------

    def register_driver(self, driver) -> None:
        if driver.name in self._drivers:
            raise ConfigError(f"driver {driver.name!r} already registered")
        self._drivers[driver.name] = _DriverSlot(driver=driver)

    def start_driver(self, name: str) -> None:
        slot = self._slot(name)
        # Only one optimizer-replacing driver may be active at a time --
        # they would fight over the same injection point.  Checked before
        # init, so a refused driver is left exactly as it was.
        if slot.driver.injection_type == "query_optimizer":
            for other_name, other in self._drivers.items():
                if (
                    other_name != name
                    and other.active
                    and other.driver.injection_type == "query_optimizer"
                ):
                    raise ConfigError(
                        f"cannot start {name!r}: optimizer driver "
                        f"{other_name!r} is already active"
                    )
        slot.driver.init(self.interactor)
        slot.active = True

    def stop_driver(self, name: str) -> None:
        self._slot(name).active = False

    def _slot(self, name: str) -> _DriverSlot:
        try:
            return self._drivers[name]
        except KeyError:
            raise KeyError(
                f"no driver {name!r}; registered: {sorted(self._drivers)}"
            ) from None

    def active_drivers(self) -> list[str]:
        return [n for n, s in self._drivers.items() if s.active]

    def enable_background_updates(self, every_n_queries: int) -> None:
        """Run each active driver's background_update every N queries from now."""
        if every_n_queries < 1:
            raise ConfigError("update period must be >= 1")
        self._updates_every = every_n_queries
        self._queries_since_update = 0

    # -- query execution ---------------------------------------------------------------

    def _serving_driver(self):
        for slot in self._drivers.values():
            if slot.active and slot.driver.injection_type in (
                "query_optimizer",
                "cardinality",
                "query_rewrite",
            ):
                return slot.driver
        return None

    def _dispatch(self, driver, query: Query) -> ExecutionResult | None:
        """One driver dispatch with retries.

        Returns ``None`` when the driver could not serve the query within
        policy (degrade to native)."""
        attempt = 0
        while True:
            try:
                return driver.algo(query)
            except _RETRYABLE:
                self.driver_errors += 1
                attempt += 1
                if attempt >= self.retry_policy.max_attempts:
                    self.native_fallbacks += 1
                    return None
                self.retries += 1
                self.retry_backoff_total_ms += self.retry_policy.backoff_ms(
                    attempt - 1
                )

    def _execute_native(self, query: Query) -> ExecutionResult:
        """Native execution, through the plan cache when one is wired.

        A cache hit replays the template's compiled plan with this
        query's literals substituted into the scans (prepared-statement
        semantics); a miss plans normally and populates the cache.
        """
        if self.plan_cache is None:
            return self.interactor.execute_default(query)
        plan, _ = self.interactor.optimizer.plan_cached(query, self.plan_cache)
        return self.interactor.simulator.execute(plan)

    def execute(self, sql_or_query: str | Query) -> ExecutionResult:
        """Execute user SQL, transparently through the active driver."""
        query = (
            parse_query(sql_or_query)
            if isinstance(sql_or_query, str)
            else sql_or_query
        )
        driver = self._serving_driver()
        outcome = None
        served_by = "native"
        if driver is not None:
            outcome = self._dispatch(driver, query)
            if outcome is not None:
                served_by = driver.name
        if outcome is None:
            outcome = self._execute_native(query)
        self.query_log.append(
            QueryLogEntry(
                sql=query.cache_key,  # the memoized to_sql() text
                served_by=served_by,
                cardinality=outcome.cardinality,
                latency_ms=outcome.latency_ms,
            )
        )
        self.queries_served += 1
        self.last_served_by = served_by
        self.served_by_counts[served_by] = (
            self.served_by_counts.get(served_by, 0) + 1
        )
        self._queries_since_update += 1
        if self._updates_every and self._queries_since_update >= self._updates_every:
            self._queries_since_update = 0
            for slot in self._drivers.values():
                if slot.active:
                    slot.driver.background_update()
        return outcome
