"""Learned query rewriting: rules, retrieval, validation, promotion.

The subsystem closes the one optimization axis PRs 1-6 left untouched --
the SQL text itself.  Its shape follows QueryTorque's
retrieve -> rewrite -> validate -> promote loop:

- :mod:`repro.rewrite.rules` -- result-preserving rewrite rules emitting
  :class:`~repro.rewrite.rules.RewriteCandidate` objects with provenance;
- :mod:`repro.rewrite.values` -- literal values relations backing the
  IN -> join rewrite, attached in place to the live database;
- :mod:`repro.rewrite.retrieval` -- gold/anti example store clustered by
  query structure (FlatQueryFeaturizer + KMeans), down-weighting rules
  that regressed on similar queries;
- :mod:`repro.rewrite.validate` -- zero-tolerance exact-count gate shared
  with the metamorphic oracle;
- :mod:`repro.rewrite.leaderboard` -- the promotion state machine
  (promote at >= 1.05x simulated speedup, demote regressions to
  anti-patterns) with deterministic exports and ``rewrite.*`` telemetry;
- :mod:`repro.rewrite.optimizer` -- serving wrappers: a learned-optimizer
  surface for OptimizationLoop / DeploymentManager and a PilotScope
  driver.
"""

from repro.rewrite.leaderboard import PromotionLeaderboard
from repro.rewrite.optimizer import RewriteDriver, RewritingOptimizer
from repro.rewrite.retrieval import GoldExampleStore
from repro.rewrite.rules import REWRITE_RULES
from repro.rewrite.validate import RewriteValidator
from repro.rewrite.values import ValuesCatalog

__all__ = [
    "REWRITE_RULES",
    "ValuesCatalog",
    "GoldExampleStore",
    "RewriteValidator",
    "PromotionLeaderboard",
    "RewritingOptimizer",
    "RewriteDriver",
]
