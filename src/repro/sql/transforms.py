"""Result-preserving query transforms: one registry, two consumers.

The metamorphic oracle (PR 5) and the learned rewrite subsystem (PR 7) both
need the same primitive: a named transform ``fn(db, query) -> Query | None``
that provably cannot change a COUNT(*) result, plus a way to *verify* that
claim against the exact executor.  Keeping two copies would let them drift,
so the transforms live here and both consumers import them:

- :class:`repro.oracle.metamorphic.MetamorphicSuite` iterates
  :data:`TRANSFORM_REGISTRY` and flags count or ``query_hash`` divergence as
  oracle violations;
- :class:`repro.rewrite.validate.RewriteValidator` runs
  :func:`verify_transform` / :func:`verify_union` over rewrite candidates
  before anything can reach the promotion leaderboard.

``verify_union`` exists for rewrites that split one query into several
(OR -> UNION over provably disjoint branches): there the invariant is that
the branch counts *sum* to the original count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.sql.query import (
    ColumnRef,
    Join,
    Op,
    OrPredicate,
    Predicate,
    Query,
)
from repro.storage.catalog import Database

__all__ = [
    "ResultPreservingTransform",
    "TRANSFORM_REGISTRY",
    "VerifyOutcome",
    "exact_count",
    "verify_transform",
    "verify_union",
    "add_tautology",
    "split_between",
    "expand_in_to_or",
    "permute_tables",
    "commute_joins",
]


def _columns_used(query: Query) -> list[ColumnRef]:
    """ColumnRefs mentioned by the query's predicates, in canonical order."""
    return [p.column for p in query.predicates]


def add_tautology(db: Database, query: Query) -> Query | None:
    """Conjoin a predicate every row satisfies: ``col <= data max``."""
    cols = _columns_used(query)
    if not cols:
        # Fall back to the first column of the first table.
        table = query.tables[0]
        names = db.table(table).column_names
        if not names:
            return None
        ref = ColumnRef(table, names[0])
    else:
        ref = cols[0]
    ceiling = db.table(ref.table).column(ref.column).max
    taut = Predicate(ref, Op.LE, ceiling)
    if taut in query.predicates:
        return None
    return Query(query.tables, query.joins, query.predicates + (taut,))


def split_between(db: Database, query: Query) -> Query | None:
    """Split the first BETWEEN predicate into two range conjuncts."""
    for i, p in enumerate(query.predicates):
        if p.op is Op.BETWEEN:
            lo, hi = p.value
            rest = query.predicates[:i] + query.predicates[i + 1 :]
            split = (
                Predicate(p.column, Op.GE, float(lo)),
                Predicate(p.column, Op.LE, float(hi)),
            )
            return Query(query.tables, query.joins, rest + split)
    return None


def expand_in_to_or(db: Database, query: Query) -> Query | None:
    """Expand the first IN predicate into a disjunction of equalities."""
    for i, p in enumerate(query.predicates):
        if p.op is Op.IN:
            values = sorted(p.value)
            rest = query.predicates[:i] + query.predicates[i + 1 :]
            if len(values) == 1:
                expanded = Predicate(p.column, Op.EQ, float(values[0]))
            else:
                expanded = OrPredicate(
                    p.column,
                    tuple(
                        Predicate(p.column, Op.EQ, float(v)) for v in values
                    ),
                )
            return Query(query.tables, query.joins, rest + (expanded,))
    return None


def permute_tables(db: Database, query: Query) -> Query | None:
    """Rebuild with the FROM list (and join/predicate lists) reversed."""
    if query.n_tables < 2:
        return None
    return Query(
        tuple(reversed(query.tables)),
        tuple(reversed(query.joins)),
        tuple(reversed(query.predicates)),
    )


def commute_joins(db: Database, query: Query) -> Query | None:
    """Swap the two sides of every join condition."""
    if not query.joins:
        return None
    return Query(
        query.tables,
        tuple(Join(j.right, j.left) for j in query.joins),
        query.predicates,
    )


@dataclass(frozen=True)
class ResultPreservingTransform:
    """A named count-preserving rewrite with its canonicalization contract.

    ``preserves_query_hash`` marks transforms that merely reorder members:
    canonicalization must map them back to the identical ``query_hash``
    (the contract the cardinality cache, canary split and experience store
    rely on).  Structural transforms change the hash by design.
    """

    name: str
    fn: Callable[[Database, Query], Query | None]
    preserves_query_hash: bool

    def apply(self, db: Database, query: Query) -> Query | None:
        return self.fn(db, query)


#: transform name -> ResultPreservingTransform, in canonical order.
TRANSFORM_REGISTRY: dict[str, ResultPreservingTransform] = {
    t.name: t
    for t in (
        ResultPreservingTransform("add_tautology", add_tautology, False),
        ResultPreservingTransform("split_between", split_between, False),
        ResultPreservingTransform("expand_in_to_or", expand_in_to_or, False),
        ResultPreservingTransform("permute_tables", permute_tables, True),
        ResultPreservingTransform("commute_joins", commute_joins, True),
    )
}


def exact_count(query: Query, executor) -> int | None:
    """Exact COUNT(*) on ``executor``, a
    :class:`~repro.engine.executor.CardinalityExecutor`; None when
    intractable.

    The engine import is deferred so ``repro.sql`` stays importable
    without dragging the engine in at package-import time.
    """
    from repro.engine.executor import IntermediateTooLarge

    try:
        return executor.cardinality(query)
    except IntermediateTooLarge:
        return None


@dataclass(frozen=True)
class VerifyOutcome:
    """Result of checking a transform's count-preservation claim.

    ``ok`` is True only when both counts were computable and equal.
    ``skipped`` is True when either side exceeded the executor's
    intermediate-size guard -- not a pass, not a failure.
    """

    ok: bool
    skipped: bool
    expected: int | None
    actual: int | None
    reason: str = ""

    @property
    def failed(self) -> bool:
        return not self.ok and not self.skipped


def verify_transform(
    transformed: Query,
    *,
    executor,
    baseline: int | None,
) -> VerifyOutcome:
    """Check COUNT(original) == COUNT(transformed) on the exact ``executor``.

    ``baseline`` is the original's count, which every caller has already
    computed (``None``: it was intractable).
    """
    if baseline is None:
        return VerifyOutcome(False, True, None, None, "original intractable")
    actual = exact_count(transformed, executor)
    if actual is None:
        return VerifyOutcome(False, True, baseline, None, "transformed intractable")
    if actual != baseline:
        return VerifyOutcome(
            False,
            False,
            baseline,
            actual,
            f"count mismatch: {baseline} != {actual}",
        )
    return VerifyOutcome(True, False, baseline, actual)


def verify_union(
    branches: Sequence[Query],
    *,
    executor,
    baseline: int | None,
) -> VerifyOutcome:
    """Check COUNT(original) == sum over branch counts.

    The invariant for disjoint-split rewrites (OR -> UNION): when the
    branches partition the original's predicate space, the branch counts
    must sum exactly to ``baseline``, the original's count (``None``: it
    was intractable).
    """
    if baseline is None:
        return VerifyOutcome(False, True, None, None, "original intractable")
    total = 0
    for branch in branches:
        count = exact_count(branch, executor)
        if count is None:
            return VerifyOutcome(
                False, True, baseline, None, "branch intractable"
            )
        total += count
    if total != baseline:
        return VerifyOutcome(
            False,
            False,
            baseline,
            total,
            f"branch counts sum to {total}, expected {baseline}",
        )
    return VerifyOutcome(True, False, baseline, total)
