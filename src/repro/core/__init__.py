"""Core abstractions: the tutorial's unified view of learned query optimizers.

Section 2.2 of the paper observes that every end-to-end learned optimizer
can be subsumed under one framework: *generate candidate plans with some
exploration strategy, then select with a learned risk model*.  This package
defines that framework (:mod:`repro.core.framework`) along with the common
interfaces every component implements (:mod:`repro.core.interfaces`), the
method registry that regenerates the paper's Table 1
(:mod:`repro.core.registry`), the error taxonomy (:mod:`repro.core.errors`),
the one bounded LRU under the repository's four caches
(:mod:`repro.core.lru`) and the ``__init__`` of the per-request records
(:mod:`repro.core.records`).

Only what is imported *through the package* is re-exported here; the
interfaces, protocols and error types are imported from the module that
defines them.
"""

from repro.core.framework import LearnedOptimizer, PlannerModel, RetrainCadence
from repro.core.registry import registry

__all__ = [
    "LearnedOptimizer",
    "PlannerModel",
    "RetrainCadence",
    "registry",
]
