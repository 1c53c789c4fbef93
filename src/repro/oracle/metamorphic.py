"""Metamorphic query suite over the shared result-preserving transforms.

Metamorphic testing sidesteps the oracle problem: we may not know a query's
true count a priori, but we *do* know that certain rewrites cannot change
it.  The transforms themselves live in :mod:`repro.sql.transforms` (one
registry shared with the rewrite subsystem's validator) --

- **add_tautology**: conjoin ``col <= max(col over the data)``, which every
  row satisfies;
- **split_between**: rewrite ``col BETWEEN lo AND hi`` as the conjunction
  ``col >= lo AND col <= hi``;
- **expand_in_to_or**: rewrite ``col IN (a, b, ...)`` as the disjunction
  ``col = a OR col = b OR ...`` (singleton IN becomes plain equality);
- **permute_tables** / **commute_joins**: reorder the FROM list and swap
  each join's sides.  These must additionally leave :func:`~repro.sql.
  query.query_hash` unchanged -- the repo's canonicalization contract that
  the cardinality cache, canary split and experience store all rely on.

The suite runs each applicable transform over a workload, asserting the
exact executor returns the same count for original and transformed query
(via the shared :func:`repro.sql.transforms.verify_transform`).
"""

from __future__ import annotations

from typing import Callable

from repro.engine.executor import CardinalityExecutor, IntermediateTooLarge
from repro.oracle.report import Violation
from repro.sql.query import Query, query_hash
from repro.sql.transforms import TRANSFORM_REGISTRY, verify_transform
from repro.storage.catalog import Database

__all__ = ["MetamorphicSuite", "TRANSFORMS"]


#: Backward-compatible view of the shared registry:
#: transform name -> (fn, must_preserve_query_hash)
TRANSFORMS: dict[
    str, tuple[Callable[[Database, Query], Query | None], bool]
] = {
    name: (t.fn, t.preserves_query_hash)
    for name, t in TRANSFORM_REGISTRY.items()
}


class MetamorphicSuite:
    """Run result-preserving transforms over a workload and compare counts."""

    def __init__(self, db: Database) -> None:
        self.db = db
        self.executor = CardinalityExecutor(db)
        self.checks_run = 0
        self.skipped = 0

    def check_query(self, query: Query) -> list[Violation]:
        violations: list[Violation] = []
        qh = query_hash(query)
        try:
            baseline = self.executor.cardinality(query)
        except IntermediateTooLarge:
            self.skipped += 1
            return violations
        for name, transform in TRANSFORM_REGISTRY.items():
            transformed = transform.apply(self.db, query)
            if transformed is None:
                continue
            self.checks_run += 1
            if (
                transform.preserves_query_hash
                and query_hash(transformed) != qh
            ):
                violations.append(
                    Violation(
                        layer="metamorphic",
                        check=f"{name}:query_hash",
                        subject=qh,
                        expected=qh,
                        actual=query_hash(transformed),
                        detail=transformed.to_sql(),
                    )
                )
            outcome = verify_transform(
                query,
                transformed,
                baseline=baseline,
                executor=self.executor,
            )
            if outcome.skipped:
                self.skipped += 1
                continue
            if outcome.failed:
                violations.append(
                    Violation(
                        layer="metamorphic",
                        check=name,
                        subject=qh,
                        expected=str(outcome.expected),
                        actual=str(outcome.actual),
                        detail=transformed.to_sql(),
                    )
                )
        return violations

    def check_workload(self, queries: list[Query]) -> list:
        out = []
        for q in queries:
            out.extend(self.check_query(q))
        return out
