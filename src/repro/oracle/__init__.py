"""Differential + metamorphic plan-correctness oracle.

Four independent layers guard the stack's correctness (DESIGN.md §11):

- :mod:`~repro.oracle.equivalence` -- every enumerated physical plan shape
  (all algorithms, all Bao arms, all Lero scaling factors) must produce the
  exact count, and the exact executor itself is cross-checked against the
  pure-Python :mod:`~repro.oracle.reference` implementation;
- :mod:`~repro.oracle.metamorphic` -- result-preserving query transforms
  must not change counts (and order permutations must not change hashes);
- :mod:`~repro.oracle.contracts` -- estimator invariants: finite,
  non-negative, cross-product-bounded, monotone under tightening,
  zero out-of-domain, version-bumped on state change;
- :mod:`~repro.oracle.audit` -- a deterministic 1-in-N sample of *served*
  queries is re-verified online, reporting through the telemetry bus.

:mod:`~repro.oracle.mutations` provides the seeded-bug catalogue the
oracle gate (``benchmarks/bench_p5_oracle.py``) validates itself against.
"""

from repro.oracle.audit import OnlineAuditor
from repro.oracle.contracts import EstimatorContractChecker
from repro.oracle.equivalence import PlanEquivalenceChecker
from repro.oracle.metamorphic import MetamorphicSuite
from repro.oracle.mutations import apply_mutation, mutation_names
from repro.oracle.planexec import PlanInterpreter, PlanResultTooLarge
from repro.oracle.reference import ReferenceTooLarge, reference_count
from repro.oracle.report import OracleReport, Violation

__all__ = [
    "OnlineAuditor",
    "EstimatorContractChecker",
    "PlanEquivalenceChecker",
    "MetamorphicSuite",
    "apply_mutation",
    "mutation_names",
    "PlanInterpreter",
    "PlanResultTooLarge",
    "ReferenceTooLarge",
    "reference_count",
    "OracleReport",
    "Violation",
]
