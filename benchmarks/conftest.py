"""Shared benchmark fixtures.

Benchmarks use larger databases than the unit tests (scale 0.6-0.8) so the
reported shapes are stable; everything stays laptop-scale.  ``repro`` is
importable from a plain checkout because ``benchmarks/__init__.py`` puts
``src/`` on ``sys.path`` before pytest imports this file.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import CardinalityExecutor, ExecutionSimulator
from repro.optimizer import Optimizer
from repro.sql import WorkloadGenerator
from repro.storage import make_imdb_lite, make_stats_lite, make_tpch_lite


@pytest.fixture(scope="session")
def stats_db():
    return make_stats_lite(scale=0.6, seed=0)


@pytest.fixture(scope="session")
def imdb_db():
    return make_imdb_lite(scale=0.6, seed=0)


@pytest.fixture(scope="session")
def tpch_db():
    return make_tpch_lite(scale=0.6, seed=0)


@pytest.fixture(scope="session")
def stats_executor(stats_db):
    return CardinalityExecutor(stats_db)


@pytest.fixture(scope="session")
def stats_optimizer(stats_db):
    return Optimizer(stats_db)


@pytest.fixture(scope="session")
def stats_simulator(stats_db):
    return ExecutionSimulator(stats_db)


@pytest.fixture(scope="session")
def imdb_optimizer(imdb_db):
    return Optimizer(imdb_db)


@pytest.fixture(scope="session")
def imdb_simulator(imdb_db):
    return ExecutionSimulator(imdb_db)


@pytest.fixture(scope="session")
def stats_train(stats_db, stats_executor):
    gen = WorkloadGenerator(stats_db, seed=1)
    queries = gen.workload(400, 1, 4, require_predicate=True)
    cards = np.array([stats_executor.cardinality(q) for q in queries])
    return queries, cards


@pytest.fixture(scope="session")
def stats_test(stats_db, stats_executor):
    gen = WorkloadGenerator(stats_db, seed=97)
    queries = gen.workload(120, 1, 4, require_predicate=True)
    cards = np.array([stats_executor.cardinality(q) for q in queries])
    return queries, cards
