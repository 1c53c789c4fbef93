"""Differential plan-correctness checking.

Every physical plan for a query must compute the same answer: the exact
count the :class:`~repro.engine.CardinalityExecutor` reports.  The checker
enumerates the plan shapes the stack actually serves -- every enumeration
algorithm, every Bao hint-set arm, every Lero cardinality-scaling factor --
executes each one literally with the :class:`~repro.oracle.planexec.
PlanInterpreter`, and reports any disagreement.  The executor itself is
cross-checked against the pure-Python :func:`~repro.oracle.reference.
reference_count`, so a bug in the ground truth cannot silently vouch for
itself.
"""

from __future__ import annotations

from repro.core.interfaces import ScaledCardinalities
from repro.engine.executor import CardinalityExecutor, IntermediateTooLarge
from repro.engine.plans import Plan
from repro.optimizer.hints import HintSet
from repro.optimizer.planner import Optimizer
from repro.oracle.planexec import PlanInterpreter, PlanResultTooLarge
from repro.oracle.reference import ReferenceTooLarge, reference_count
from repro.oracle.report import Violation
from repro.sql.query import Query, query_hash
from repro.storage.catalog import Database

__all__ = ["PlanEquivalenceChecker"]

#: the Lero-style estimate-scaling factors swept for extra plan diversity
SCALING_FACTORS: tuple[float, ...] = (0.01, 0.1, 10.0, 100.0)
#: intermediate-row guard of the pure-Python reference cross-check
REFERENCE_MAX_ROWS = 200_000
#: the enumeration algorithms whose plans are checked
ALGORITHMS = ("dp", "greedy", "left_deep")


class PlanEquivalenceChecker:
    """Assert that every enumerated plan shape agrees with the exact count.

    Parameters mirror the serving stack: ``optimizer`` is the native
    optimizer whose enumerator produces the plans (a fresh one is built
    when omitted) under each of Bao's arms; ``SCALING_FACTORS`` adds
    Lero-arm plan diversity via
    :class:`~repro.core.interfaces.ScaledCardinalities`.  The literal
    interpreter runs under a 2,000,000-row guard; plans whose true
    intermediates exceed it are skipped (counted in :attr:`skipped`), not
    failed.
    """

    def __init__(
        self,
        db: Database,
        optimizer: Optimizer | None = None,
        *,
        check_reference: bool = True,
    ) -> None:
        self.db = db
        self.optimizer = optimizer if optimizer is not None else Optimizer(db)
        self.arms = HintSet.bao_arms()
        self.interpreter = PlanInterpreter(db)
        self.executor = CardinalityExecutor(db)
        self.check_reference = check_reference
        self.plans_checked = 0
        self.skipped = 0

    # -- plan collection ---------------------------------------------------------

    def plans_for(self, query: Query) -> list[tuple[str, Plan]]:
        """Every distinct plan shape the stack would consider, labelled."""
        labelled: list[tuple[str, Plan]] = []
        for algorithm in ALGORITHMS:
            labelled.append(
                (f"algo:{algorithm}", self.optimizer.plan(query, algorithm=algorithm))
            )
        for arm in self.arms:
            labelled.append(
                (f"arm:{arm.name()}", self.optimizer.plan(query, hints=arm))
            )
        for factor in SCALING_FACTORS:
            scaled = self.optimizer.with_estimator(
                ScaledCardinalities(self.optimizer.estimator, factor)
            )
            labelled.append((f"scale:{factor:g}", scaled.plan(query)))
        seen: set[str] = set()
        unique: list[tuple[str, Plan]] = []
        for label, plan in labelled:
            sig = plan.signature()
            if sig not in seen:
                seen.add(sig)
                unique.append((label, plan))
        return unique

    # -- checking ----------------------------------------------------------------

    def check_query(self, query: Query) -> list[Violation]:
        """All plan-equivalence violations for one query."""
        violations: list[Violation] = []
        qh = query_hash(query)
        try:
            exact = self.executor.cardinality(query)
        except IntermediateTooLarge:
            self.skipped += 1
            return violations
        if self.check_reference:
            try:
                ref = reference_count(self.db, query, max_rows=REFERENCE_MAX_ROWS)
            except ReferenceTooLarge:
                self.skipped += 1
            else:
                self.plans_checked += 1
                if ref != exact:
                    violations.append(
                        Violation(
                            layer="plan_equivalence",
                            check="executor_vs_reference",
                            subject=qh,
                            expected=str(ref),
                            actual=str(exact),
                            detail=query.to_sql(),
                        )
                    )
        for label, plan in self.plans_for(query):
            try:
                produced = self.interpreter.count(plan)
            except PlanResultTooLarge:
                self.skipped += 1
                continue
            self.plans_checked += 1
            if produced != exact:
                violations.append(
                    Violation(
                        layer="plan_equivalence",
                        check="plan_vs_exact",
                        subject=f"{qh}:{label}",
                        expected=str(exact),
                        actual=str(produced),
                        detail=plan.signature(),
                    )
                )
        return violations

    def check_workload(self, queries: list[Query]) -> list[Violation]:
        out: list[Violation] = []
        for q in queries:
            out.extend(self.check_query(q))
        return out
