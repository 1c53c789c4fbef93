"""Shared fixtures: small databases, workloads and engine objects.

Session-scoped where construction is expensive; tests must not mutate
these shared objects (drift tests build their own databases).
"""

from __future__ import annotations

import sys
from pathlib import Path

# Make `python -m pytest` work from a plain checkout (no PYTHONPATH=src,
# no editable install) -- benchmarks/__init__.py does the same.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import numpy as np
import pytest

from repro.engine import CardinalityExecutor, ExecutionSimulator
from repro.optimizer import Optimizer
from repro.sql import WorkloadGenerator
from repro.storage import make_imdb_lite, make_stats_lite, make_tpch_lite


@pytest.fixture(scope="session")
def stats_db():
    return make_stats_lite(scale=0.3, seed=0)


@pytest.fixture(scope="session")
def imdb_db():
    return make_imdb_lite(scale=0.3)


@pytest.fixture(scope="session")
def tpch_db():
    return make_tpch_lite()


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
def stats_workload(stats_db):
    gen = WorkloadGenerator(stats_db, seed=7)
    return gen.workload(40, 1, 4, require_predicate=True)


@pytest.fixture(scope="session")
def stats_train_data(stats_db, stats_executor):
    """(queries, true_cards) training pairs for supervised estimators."""
    gen = WorkloadGenerator(stats_db, seed=3)
    queries = gen.workload(120, 1, 4, require_predicate=True)
    cards = np.array([stats_executor.cardinality(q) for q in queries])
    return queries, cards


@pytest.fixture(scope="session")
def imdb_plan_corpus(imdb_db, imdb_optimizer, imdb_simulator):
    """(plans, latencies) corpus for cost-model tests."""
    from repro.optimizer import HintSet

    gen = WorkloadGenerator(imdb_db, seed=5)
    plans, lats = [], []
    arms = HintSet.bao_arms()[:4]
    for q in gen.workload(30, 2, 4, require_predicate=True):
        for arm in arms:
            p = imdb_optimizer.plan(q, hints=arm)
            plans.append(p)
            lats.append(imdb_simulator.execute(p).latency_ms)
    return plans, np.array(lats)
