"""Zero-tolerance correctness gate in front of the promotion leaderboard.

A rewrite that changes results is worse than useless no matter how fast it
is, so every candidate passes through the same exact-count machinery the
metamorphic oracle uses (:func:`repro.sql.transforms.verify_transform` /
:func:`~repro.sql.transforms.verify_union`): COUNT(original) must equal
COUNT(rewritten) -- or the sum over branches for union splits -- on the
vectorized executor, with no tolerance.  Candidates whose counts cannot be
computed (intermediate-size guard) are *skipped*, never promoted.

For promoted candidates the leaderboard can additionally run
:meth:`RewriteValidator.deep_check`, which pushes each rewritten query
through the :class:`~repro.oracle.equivalence.PlanEquivalenceChecker`:
every enumerated plan shape for the rewritten query must agree with the
original's exact count.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.executor import CardinalityExecutor
from repro.sql.transforms import VerifyOutcome, verify_transform, verify_union
from repro.storage.catalog import Database

from repro.rewrite.rules import RewriteCandidate

__all__ = ["ValidationResult", "RewriteValidator"]


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of validating one candidate (wraps the shared VerifyOutcome)."""

    candidate: RewriteCandidate
    outcome: VerifyOutcome

    @property
    def skipped(self) -> bool:
        return self.outcome.skipped

    @property
    def mismatch(self) -> bool:
        return self.outcome.failed


class RewriteValidator:
    """Exact count-preservation checks for rewrite candidates."""

    def __init__(self, db: Database) -> None:
        self.executor = CardinalityExecutor(db)
        self.checked = 0
        self.mismatches = 0
        self.skipped = 0

    def validate(
        self, candidate: RewriteCandidate, *, baseline: int | None = None
    ) -> ValidationResult:
        """Exact COUNT comparison; ``baseline`` skips re-counting the original."""
        self.checked += 1
        if candidate.servable:
            outcome = verify_transform(
                candidate.original,
                candidate.rewritten,
                baseline=baseline,
                executor=self.executor,
            )
        else:
            outcome = verify_union(
                candidate.original,
                candidate.queries,
                baseline=baseline,
                executor=self.executor,
            )
        if outcome.failed:
            self.mismatches += 1
        elif outcome.skipped:
            self.skipped += 1
        return ValidationResult(candidate, outcome)

    def deep_check(self, candidate: RewriteCandidate, checker) -> list:
        """Run every rewritten query through a PlanEquivalenceChecker.

        Returns the collected oracle violations (empty when clean).  The
        checker must be built over the same database (values relations
        included) so plans over attached literals execute.
        """
        violations: list = []
        for query in candidate.queries:
            violations.extend(checker.check_query(query))
        return violations
