"""Tests for GL+ segmentation [52]."""

import numpy as np
import pytest

from repro.cardest import GLPlusEstimator, q_error
from repro.sql import Query, WorkloadGenerator


class TestGLPlus:
    def test_builds_local_models_with_enough_data(self, stats_db, stats_train_data):
        est = GLPlusEstimator(stats_db, epochs=25)
        est.fit(*stats_train_data)
        assert len(est._local) >= 1

    def test_small_workload_falls_back_to_global(self, stats_db, stats_train_data):
        queries, cards = stats_train_data
        est = GLPlusEstimator(stats_db, epochs=10)
        # fewer queries than one segment needs for its own model
        est.fit(queries[:25], cards[:25])
        assert est._local == {}
        assert est.estimate(queries[0]) >= 0.0

    def test_accuracy_reasonable(self, stats_db, stats_train_data, stats_executor):
        est = GLPlusEstimator(stats_db, epochs=40)
        est.fit(*stats_train_data)
        test = WorkloadGenerator(stats_db, seed=190).workload(
            30, 1, 3, require_predicate=True
        )
        errs = [
            q_error(est.estimate(q), stats_executor.cardinality(q)) for q in test
        ]
        assert np.median(errs) < 20.0

    def test_estimate_before_fit(self, stats_db):
        with pytest.raises(RuntimeError):
            GLPlusEstimator(stats_db).estimate(Query(("users",)))

    def test_fit_rejects_empty(self, stats_db):
        with pytest.raises(ValueError):
            GLPlusEstimator(stats_db).fit([], np.zeros(0))

    def test_in_registry(self):
        from repro.core import registry

        rows = [m for m in registry("cardinality") if m.method == "GL+"]
        assert len(rows) == 1
        assert rows[0].resolve() is GLPlusEstimator
