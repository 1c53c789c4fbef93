"""Estimator contract checking.

Cardinality estimates are predictions, not facts -- the oracle cannot
demand they be *right*.  What it can demand is that they respect the
invariants every sane estimator satisfies, the same invariants whose
violations have historically been real bugs in this stack:

- estimates are finite and non-negative;
- no (sub-)query estimate exceeds the unfiltered cross-product of its
  tables' row counts;
- tightening a predicate (adding a conjunct, shrinking a BETWEEN) never
  *increases* the estimate beyond a small tolerance;
- an equality against a literal outside the column's data domain, or a
  strict comparison beyond the domain edge, estimates (approximately)
  zero -- the contracts the satellite selectivity fixes restored;
- any state change that can alter answers (refit, feedback) bumps
  ``estimates_version``, the counter cardinality caches key on.

For *bound* estimators (:mod:`repro.cardest.bounds`) the oracle can demand
more: a certified upper bound must dominate the exact count on every
connected sub-query (:meth:`~EstimatorContractChecker.check_bound_soundness`
-- checked against the independent exact executor), and must dominate the
point estimate it certifies (:meth:`~EstimatorContractChecker.
check_bound_dominates`).  Note that the domain contracts do NOT apply to
bound estimators: bucket hulls deliberately overcount at domain edges.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.engine.executor import CardinalityExecutor, IntermediateTooLarge
from repro.sql.query import ColumnRef, Op, Predicate, Query
from repro.storage.catalog import Database
from repro.oracle.report import Violation

__all__ = ["EstimatorContractChecker"]


class EstimatorContractChecker:
    """Check one estimator's invariants over queries and over the schema.

    ``monotonic`` enables the predicate-tightening checks (on by default;
    turn off for learned estimators that only satisfy it approximately).
    """

    #: multiplicative slack tightened estimates may gain before we call it
    #: a violation
    tolerance = 1.001
    #: absolute row count an out-of-domain estimate may report and still
    #: count as "zero"
    zero_tolerance = 0.5
    #: cap on the connected sub-queries checked per query
    max_subqueries = 64

    def __init__(
        self,
        db: Database,
        estimator,
        *,
        monotonic: bool = True,
    ) -> None:
        self.db = db
        self.estimator = estimator
        self.name = type(estimator).__name__
        self.monotonic = monotonic
        self.checks_run = 0

    # -- helpers -----------------------------------------------------------------

    def _cross_product(self, query: Query) -> float:
        upper = 1.0
        for t in query.tables:
            upper *= max(self.db.table(t).n_rows, 1)
        return upper

    def _connected_subqueries(self, query: Query) -> list[Query]:
        """All connected sub-queries (incl. the query itself), capped."""
        if query.n_tables == 1:
            return [query]
        adj = query.join_adjacency()
        subsets: set[frozenset[str]] = set()
        frontier: list[frozenset[str]] = [frozenset((t,)) for t in query.tables]
        while frontier and len(subsets) < self.max_subqueries:
            cur = frontier.pop()
            if cur in subsets:
                continue
            subsets.add(cur)
            for t in cur:
                for n in adj[t]:
                    if n not in cur:
                        frontier.append(cur | {n})
        return [query.subquery(s) for s in sorted(subsets, key=sorted)]

    def _violation(
        self, check: str, subject: str, expected: str, actual: str, detail: str = ""
    ) -> Violation:
        return Violation(
            layer="contract",
            check=check,
            subject=f"{self.name}:{subject}",
            expected=expected,
            actual=actual,
            detail=detail,
        )

    # -- per-query contracts -----------------------------------------------------

    def check_query(self, query: Query) -> list[Violation]:
        violations: list[Violation] = []
        for sub in self._connected_subqueries(query):
            est = float(self.estimator.estimate(sub))
            self.checks_run += 1
            if not math.isfinite(est):
                violations.append(
                    self._violation(
                        "finite", sub.cache_key, "a finite value", str(est)
                    )
                )
                continue
            if est < 0:
                violations.append(
                    self._violation("non_negative", sub.cache_key, ">= 0", str(est))
                )
            upper = self._cross_product(sub)
            if est > upper * (1 + 1e-9):
                violations.append(
                    self._violation(
                        "cross_product_bound",
                        sub.cache_key,
                        f"<= {upper:g}",
                        f"{est:g}",
                    )
                )
        if self.monotonic:
            violations.extend(self._check_monotonic(query))
        return violations

    def _check_monotonic(self, query: Query) -> list[Violation]:
        violations: list[Violation] = []
        base = float(self.estimator.estimate(query))
        if not math.isfinite(base):
            return violations  # already reported by check_query
        allowed = base * self.tolerance + self.zero_tolerance
        for label, tightened in self._tightenings(query):
            est = float(self.estimator.estimate(tightened))
            self.checks_run += 1
            if est > allowed:
                violations.append(
                    self._violation(
                        f"monotone:{label}",
                        query.cache_key,
                        f"<= {allowed:g}",
                        f"{est:g}",
                        detail=tightened.to_sql(),
                    )
                )
        return violations

    def _tightenings(self, query: Query) -> list[tuple[str, Query]]:
        """Strictly-tighter variants of the query (subset of the results)."""
        out: list[tuple[str, Query]] = []
        # Shrink the first BETWEEN to its central half.
        for i, p in enumerate(query.predicates):
            if p.op is Op.BETWEEN:
                lo, hi = p.value
                q = (hi - lo) / 4.0
                shrunk = Predicate(p.column, Op.BETWEEN, (lo + q, hi - q))
                rest = query.predicates[:i] + query.predicates[i + 1 :]
                out.append(
                    (
                        "shrink_between",
                        Query(query.tables, query.joins, rest + (shrunk,)),
                    )
                )
                break
        # Conjoin a fresh half-domain range predicate.
        ref = (
            query.predicates[0].column
            if query.predicates
            else ColumnRef(
                query.tables[0],
                self.db.table(query.tables[0]).column_names[0],
            )
        )
        col = self.db.table(ref.table).column(ref.column)
        mid = (col.min + col.max) / 2.0
        conjunct = Predicate(ref, Op.LE, mid)
        if conjunct not in query.predicates:
            out.append(
                (
                    "add_conjunct",
                    Query(
                        query.tables, query.joins, query.predicates + (conjunct,)
                    ),
                )
            )
        return out

    def check_workload(self, queries: list[Query]) -> list[Violation]:
        out: list[Violation] = []
        for q in queries:
            out.extend(self.check_query(q))
        return out

    # -- bound soundness contracts ---------------------------------------------------

    def check_bound_soundness(
        self, queries: list[Query], *, executor: CardinalityExecutor
    ) -> list[Violation]:
        """``bound >= exact_count`` on every enumerated connected sub-query.

        The defining contract of a pessimistic estimator: its estimate is a
        *certificate*, so on every plan shape the enumerator can visit the
        certified value must dominate the true cardinality (computed by the
        independent exact ``executor``).  Sub-queries too large to count
        exactly are skipped, not assumed sound.
        """
        violations: list[Violation] = []
        for q in queries:
            for sub in self._connected_subqueries(q):
                try:
                    exact = executor.cardinality(sub)
                except IntermediateTooLarge:
                    continue
                bound = float(self.estimator.estimate(sub))
                self.checks_run += 1
                if bound < exact:
                    violations.append(
                        self._violation(
                            "bound_soundness",
                            sub.cache_key,
                            f">= {exact}",
                            f"{bound:g}",
                            detail=sub.to_sql(),
                        )
                    )
        return violations

    def check_bound_dominates(
        self, point_estimator, queries: list[Query], *, tolerance: float
    ) -> list[Violation]:
        """``bound >= point_estimate`` on every enumerated sub-query.

        The serving-side pairing contract: a learned point estimate above
        its certified bound is exactly what the :class:`~repro.faults.
        BoundGuard` trips on, so a healthy (point, bound) pairing must not
        trip anywhere.  ``tolerance`` is the multiplicative slack (a
        histogram point estimate overshoots a near-exact bound by a few
        percent); ``zero_tolerance`` absorbs sub-row fractional estimates
        against integral bounds.
        """
        violations: list[Violation] = []
        for q in queries:
            for sub in self._connected_subqueries(q):
                bound = float(self.estimator.estimate(sub))
                point = float(point_estimator.estimate(sub))
                self.checks_run += 1
                allowed = bound * tolerance + self.zero_tolerance
                if not math.isfinite(point) or point > allowed:
                    violations.append(
                        self._violation(
                            "bound_dominates",
                            sub.cache_key,
                            f"<= {allowed:g}",
                            f"{point:g}",
                            detail=sub.to_sql(),
                        )
                    )
        return violations

    # -- schema-level domain contracts ---------------------------------------------

    def check_domain_contracts(self) -> list[Violation]:
        """Out-of-domain equality and strict-beyond-domain estimates are ~0.

        These are exactly the contracts the ``eq_selectivity`` domain check
        and the open/closed ``range_selectivity`` endpoints restore: an
        equality probe above the column's maximum, and a strict ``>`` at
        the maximum itself, both select nothing -- at any literal magnitude
        (no epsilon involved).
        """
        violations: list[Violation] = []
        for table_name in self.db.table_names:
            tbl = self.db.table(table_name)
            if tbl.n_rows == 0:
                continue
            for col_name in tbl.column_names:
                col = tbl.column(col_name)
                ref = ColumnRef(table_name, col_name)
                span = max(col.max - col.min, 1.0)
                probes = [
                    (
                        "eq_out_of_domain",
                        Predicate(ref, Op.EQ, col.max + span),
                    ),
                    (
                        "strict_beyond_domain",
                        Predicate(ref, Op.GT, col.max),
                    ),
                    (
                        "strict_below_domain",
                        Predicate(ref, Op.LT, col.min),
                    ),
                ]
                for check, pred in probes:
                    est = float(
                        self.estimator.estimate(
                            Query((table_name,), (), (pred,))
                        )
                    )
                    self.checks_run += 1
                    if not (0 <= est <= self.zero_tolerance):
                        violations.append(
                            self._violation(
                                check,
                                str(ref),
                                f"<= {self.zero_tolerance}",
                                f"{est:g}",
                                detail=str(pred),
                            )
                        )
        return violations

    # -- versioning contract -------------------------------------------------------

    def check_version_bump(self, refit: Callable[[object], None]) -> list[Violation]:
        """Apply ``refit(estimator)`` and require ``estimates_version`` grew.

        Every estimator has a version (a stateless one stays at 0), so the
        contract binds every estimator: a refit that leaves it in place
        would let version-keyed caches serve the old answers.
        """
        before = self.estimator.estimates_version
        refit(self.estimator)
        self.checks_run += 1
        after = self.estimator.estimates_version
        if after <= before:
            return [
                self._violation(
                    "version_bump:refit",
                    "estimates_version",
                    f"> {before}",
                    str(after),
                )
            ]
        return []
