"""One life-cycle for every row of the method table.

``fit(queries, cards)`` and ``refresh()`` are the two calls every bench,
driver and drift loop makes on every estimator, and both own the
``estimates_version`` bump the planner's cardinality cache keys on.  Each
test runs over every keyed row of :func:`repro.core.registry` built the
way the benches build it (``build_estimator`` at the ``fast`` budget), so a
new row is covered the moment it gains a key.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import apply_drift, build_estimator
from repro.cardest import Warper
from repro.core import registry
from repro.engine import CardinalityExecutor
from repro.optimizer import Optimizer
from repro.sql import WorkloadGenerator
from repro.storage import make_stats_lite

ROWS = {m.key: m for m in registry("cardinality") if m.key}


def _labelled(db, seed, n):
    executor = CardinalityExecutor(db)
    queries = WorkloadGenerator(db, seed=seed).workload(n, 1, 3, require_predicate=True)
    return queries, np.array([executor.cardinality(q) for q in queries])


@pytest.mark.parametrize("key", sorted(ROWS))
def test_no_cached_estimate_survives_a_lifecycle_call(key):
    """Entries cached before ``refresh()`` / ``fit()`` are never served after.

    Counters, not values: Naru / UAE / NeuroCard draw progressive samples
    per call, so two estimates of one query legitimately differ.
    """
    db = make_stats_lite(scale=0.1, seed=4)
    estimator = build_estimator(key, db, budget="fast")
    assert estimator.fit(*_labelled(db, 3, 60)) is estimator
    optimizer = Optimizer(db, estimator)
    apply_drift(db, fraction=0.5, seed=5)
    workload = list(dict.fromkeys(_labelled(db, 7, 12)[0]))

    def cost_workload():
        before = optimizer.cache_stats()
        for q in workload:
            optimizer.coster.estimate_cardinality(q)
        after = optimizer.cache_stats()
        return after["hits"] - before["hits"], after["misses"] - before["misses"]

    assert cost_workload() == (0, len(workload))  # fills the cache
    assert cost_workload() == (len(workload), 0)  # ... which serves it back
    estimator.refresh()
    assert cost_workload() == (0, len(workload)), "stale after refresh()"
    estimator.fit(*_labelled(db, 11, 60))
    assert cost_workload() == (0, len(workload)), "stale after fit()"


@pytest.mark.parametrize(
    "key",
    # NeuroCard trains one model per join template of the workload it is
    # fitted on, so of the data-driven rows it alone learns from queries.
    sorted(k for k, m in ROWS.items() if m.category.startswith("Data-Driven") and k != "neurocard"),
)
def test_warper_rejects_an_estimator_that_cannot_learn_from_queries(key, stats_db):
    estimator = build_estimator(key, stats_db, budget="fast")
    assert not estimator.learns_from_queries()
    with pytest.raises(TypeError):
        Warper(stats_db, estimator)


def test_rows_sharing_a_key_share_the_constructor():
    for m in registry("cardinality"):
        if m.key:
            assert (m.impl, m.args) == (ROWS[m.key].impl, ROWS[m.key].args), m.method
