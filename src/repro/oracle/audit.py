"""Sampled online re-verification of served results.

The offline oracle layers run over generated workloads; this one rides the
serving path.  An :class:`OnlineAuditor` deterministically samples one in
``every`` served queries and re-derives the reported cardinality with the
independent pure-Python reference (or, given the served plan, re-executes
the plan tree literally), filing the outcome on the
:class:`~repro.serve.telemetry.TelemetryBus` as counters
(``oracle.audited`` / ``oracle.violations`` / ``oracle.skipped``) and as a
per-trace ``audit`` tag.  Sampling is a pure function of observation
order -- no wall clock, no RNG -- so audited runs keep the serving stack's
byte-identical same-seed determinism contract.
"""

from __future__ import annotations

from repro.oracle.reference import ReferenceTooLarge, reference_count
from repro.oracle.report import OracleReport, Violation
from repro.sql.query import Query, query_hash
from repro.storage.catalog import Database

__all__ = ["OnlineAuditor"]


class OnlineAuditor:
    """Re-verify a deterministic 1-in-``every`` sample of served queries.

    ``observe`` checks a reported cardinality against the reference count,
    files its tag on the ``bus`` it is given and returns it: ``""`` (not
    sampled), ``"ok"``, ``"violation"`` or ``"skipped"`` (the
    re-verification itself was too expensive under the 200,000-row guard).
    """

    max_rows = 200_000

    def __init__(
        self,
        db: Database,
        *,
        every: int = 16,
        bound_guard=None,
    ) -> None:
        if every < 1:
            raise ValueError(f"audit sampling period must be >= 1, got {every}")
        self.db = db
        self.every = every
        # Optional repro.faults.BoundGuard: every exact count the audit
        # derives is also checked against the certified upper bound, so a
        # violated bound (drift without refresh) trips serving degradation
        # even when the *reported* cardinality audits clean.
        self.bound_guard = bound_guard
        self.report = OracleReport()
        self._observed = 0

    # -- sampling ----------------------------------------------------------------

    def _sampled(self) -> bool:
        turn = self._observed
        self._observed += 1
        return turn % self.every == 0

    def _file(self, tag: str, bus) -> str:
        bus.incr("oracle.audited")
        if tag == "violation":
            bus.incr("oracle.violations")
        elif tag == "skipped":
            bus.incr("oracle.skipped")
        return tag

    # -- audit modes -------------------------------------------------------------

    def observe(self, query: Query, reported_cardinality: int, *, bus) -> str:
        """Audit a served (query, cardinality) pair against the reference."""
        if not self._sampled():
            return ""
        self.report.record_check("audit")
        try:
            truth = reference_count(self.db, query, max_rows=self.max_rows)
        except ReferenceTooLarge:
            return self._file("skipped", bus)
        if self.bound_guard is not None:
            self.bound_guard.observe_count(query, truth, bus=bus)
        if truth != int(reported_cardinality):
            self.report.extend(
                [
                    Violation(
                        layer="audit",
                        check="served_cardinality",
                        subject=query_hash(query),
                        expected=str(truth),
                        actual=str(int(reported_cardinality)),
                        detail=query.to_sql(),
                    )
                ]
            )
            return self._file("violation", bus)
        return self._file("ok", bus)

    # -- reporting ---------------------------------------------------------------

    def stats(self) -> dict:
        """Gauge-compatible summary for telemetry attachment."""
        return {
            "observed": self._observed,
            "audited": self.report.checks.get("audit", 0),
            "violations": self.report.n_violations,
        }
