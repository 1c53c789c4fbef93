"""Batched-inference parity and the cross-plan cardinality cache.

Two invariants guard the performance layer:

1. ``estimate_batch(queries)`` agrees with ``[estimate(q) for q in queries]``
   for *every* registered estimator -- batched implementations are a pure
   speedup, never a semantic change.  Stochastic estimators (Naru-style
   progressive sampling) consume RNG state per estimate, so each path runs
   on its own deepcopy to keep the draws aligned.
2. The planner's :class:`~repro.optimizer.CardinalityCache` only ever
   serves values the estimator would produce right now: hits are keyed by
   estimator identity + version + data version, so refits, feedback and
   data drift all invalidate.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.bench.suite import fit_estimator
from repro.cardest import (
    ALECEEstimator,
    BayesNetEstimator,
    CRNEstimator,
    FSPNEstimator,
    FactorJoinEstimator,
    GBDTQueryEstimator,
    GLPlusEstimator,
    GLUEEstimator,
    HistogramEstimator,
    JoinKDEEstimator,
    KDEEstimator,
    LPCEEstimator,
    LinearQueryEstimator,
    MLPQueryEstimator,
    MSCNEstimator,
    NaruEstimator,
    NeuroCardEstimator,
    PooledMSCNEstimator,
    QuickSelEstimator,
    RobustMSCNEstimator,
    SPNEstimator,
    SamplingEstimator,
    UAEEstimator,
)
from repro.core import registry
from repro.core.interfaces import (
    CardinalityEstimator,
    InjectedCardinalities,
    ScaledCardinalities,
    batch_estimate,
    estimator_cache_tag,
)
from repro.engine import CardinalityExecutor
from repro.engine.kernels import KeyIndexCache
from repro.optimizer import CardinalityCache, HintSet, Optimizer, PlanCache
from repro.optimizer.cost import PlanCoster
from repro.sql import WorkloadGenerator
from repro.storage import make_stats_lite

# Test-budget constructors: the keys of the method table, minimal epochs
# (parity does not need accuracy; a test budget is the test's business).
# Kept in lockstep with the table by test_registry_is_fully_covered below.
_FAST_FACTORIES = {
    "histogram": lambda db: HistogramEstimator(db),
    "sampling": lambda db: SamplingEstimator(db, 80, seed=0),
    "linear": lambda db: LinearQueryEstimator(db),
    "gbdt": lambda db: GBDTQueryEstimator(db, seed=0),
    "mlp": lambda db: MLPQueryEstimator(db, epochs=4, seed=0),
    "mscn": lambda db: MSCNEstimator(db, epochs=2, seed=0),
    "robust_mscn": lambda db: RobustMSCNEstimator(db, epochs=2, seed=0),
    "quicksel": lambda db: QuickSelEstimator(db),
    "lpce": lambda db: LPCEEstimator(db, seed=0),
    "pooled_mscn": lambda db: PooledMSCNEstimator(db, epochs=2, seed=0),
    "crn": lambda db: CRNEstimator(db, epochs=2, seed=0),
    "gl_plus": lambda db: GLPlusEstimator(db, epochs=2, seed=0),
    "kde": lambda db: KDEEstimator(db, seed=0),
    "join_kde": lambda db: JoinKDEEstimator(db, seed=0),
    "naru": lambda db: NaruEstimator(db, epochs=1, seed=0),
    "neurocard": lambda db: NeuroCardEstimator(
        db, epochs=1, n_samples=200, seed=0
    ),
    "bayesnet": lambda db: BayesNetEstimator(db),
    "spn": lambda db: SPNEstimator(db, seed=0),
    "fspn": lambda db: FSPNEstimator(db, seed=0),
    "factorjoin": lambda db: FactorJoinEstimator(db, seed=0),
    "uae": lambda db: UAEEstimator(db, epochs=1, seed=0),
    "glue": lambda db: GLUEEstimator(db, FSPNEstimator(db, seed=0)),
    "alece": lambda db: ALECEEstimator(db, epochs=2, seed=0),
}


def test_registry_is_fully_covered():
    assert set(_FAST_FACTORIES) == {m.key for m in registry("cardinality") if m.key}


@pytest.mark.parametrize("name", sorted(_FAST_FACTORIES))
def test_batch_matches_sequential(name, stats_db, stats_train_data, stats_workload):
    train_q, train_c = stats_train_data
    test_q = stats_workload[:30]
    est = _FAST_FACTORIES[name](stats_db)
    fit_estimator(est, train_q, train_c)
    # Separate copies so stochastic estimators draw the same RNG sequence
    # on both paths.
    est_seq = copy.deepcopy(est)
    batch = est.estimate_batch(test_q)
    seq = np.array([est_seq.estimate(q) for q in test_q])
    assert batch.shape == (len(test_q),)
    assert np.all(np.isfinite(batch))
    assert np.allclose(batch, seq, rtol=1e-9, atol=1e-6), name


def test_batch_matches_sequential_with_disjunctions(stats_db, stats_train_data):
    """OR predicates take the to_range() fallback in the batch featurizers."""
    train_q, train_c = stats_train_data
    gen = WorkloadGenerator(stats_db, seed=29, or_rate=0.5)
    test_q = gen.workload(25, 1, 3, require_predicate=True)
    for factory in (
        lambda: MLPQueryEstimator(stats_db, epochs=3, seed=0),
        lambda: MSCNEstimator(stats_db, epochs=2, seed=0),
    ):
        est = factory()
        est.fit(train_q, train_c)
        seq = np.array([est.estimate(q) for q in test_q])
        assert np.allclose(est.estimate_batch(test_q), seq, rtol=1e-9, atol=1e-6)


def test_estimate_batch_empty(stats_db):
    est = HistogramEstimator(stats_db)
    out = est.estimate_batch([])
    assert out.shape == (0,)
    assert batch_estimate(est, []).shape == (0,)


def test_batch_estimate_falls_back_without_method(stats_db, stats_workload):
    """An estimator with no ``estimate_batch`` of its own batches through
    the protocol's scalar loop."""

    class Bare(CardinalityEstimator):
        def estimate(self, query):
            return 42.0

    out = batch_estimate(Bare(), stats_workload[:5])
    assert np.array_equal(out, np.full(5, 42.0))


def test_wrapper_batches_agree(stats_db, stats_workload):
    queries = stats_workload[:20]
    base = HistogramEstimator(stats_db)
    scaled = ScaledCardinalities(base, 10.0)
    seq = np.array([scaled.estimate(q) for q in queries])
    assert np.allclose(scaled.estimate_batch(queries), seq, rtol=1e-9)

    inj = InjectedCardinalities(base)
    inj.inject(queries[0], 123.0)
    seq = np.array([inj.estimate(q) for q in queries])
    got = inj.estimate_batch(queries)
    assert np.allclose(got, seq, rtol=1e-9)
    assert got[0] == 123.0


# -- CardinalityCache unit behaviour -----------------------------------------


def test_cache_counters_and_eviction(stats_db, stats_workload):
    cache = CardinalityCache(capacity=8)
    tag = ("t",)
    queries = stats_workload[:12]
    for q in queries:
        assert cache.lookup(tag, q) is None
        cache.insert(tag, q, 7.0)
    assert len(cache) <= 8
    stats = cache.stats()
    assert stats["misses"] == 12
    assert stats["evictions"] == 4
    # The most recently inserted queries survive LRU eviction.
    assert cache.lookup(tag, queries[-1]) == 7.0
    assert cache.lookup(tag, queries[0]) is None
    assert cache.stats()["hits"] == 1
    cache.clear()
    assert len(cache) == 0
    assert cache.stats()["hits"] == 1  # counters survive clear()


def test_cache_get_or_compute(stats_db, stats_workload):
    cache = CardinalityCache()
    q = stats_workload[0]
    calls = []

    def compute(query):
        calls.append(1)
        return 99.0

    assert cache.get_or_compute(("a",), q, compute) == 99.0
    assert cache.get_or_compute(("a",), q, compute) == 99.0
    assert len(calls) == 1
    # A different tag is a different entry.
    assert cache.get_or_compute(("b",), q, compute) == 99.0
    assert len(calls) == 2
    assert 0.0 < cache.hit_rate < 1.0


# -- one contract for the four bounded LRUs ------------------------------------
#
# CardinalityCache, PlanCache, KeyIndexCache and the exact executor's memo
# share repro.core.lru.BoundedLRU.  Each adapter below is ``(build(capacity),
# use(cache, i), stats(cache), clear(cache), capacity parameter)``, where
# ``use`` looks key ``i`` up through the cache's own front door, filling it on
# a miss.


def _distinct_queries(db, n):
    seen, out = set(), []
    for q in WorkloadGenerator(db, seed=77).workload(40, 1, 2, require_predicate=True):
        if q not in seen:
            seen.add(q)
            out.append(q)
    return out[:n]


def _cardinality_cache(db):
    queries = _distinct_queries(db, 3)
    return (
        lambda capacity: CardinalityCache(capacity=capacity),
        lambda cache, i: cache.get_or_compute(("t",), queries[i], lambda q: 5.0),
        lambda cache: cache.stats(),
        lambda cache: cache.clear(),
        "capacity",
    )


def _plan_cache(db):
    query = _distinct_queries(db, 1)[0]
    plan = Optimizer(db).plan(query)
    return (
        lambda capacity: PlanCache(capacity=capacity),
        lambda cache, i: cache.get_or_plan(query, (i,), 0, lambda q: plan),
        lambda cache: cache.stats(),
        lambda cache: cache.clear(),
        "capacity",
    )


def _key_index_cache(db):
    table = db.table("posts")
    columns = table.column_names[:3]
    return (
        lambda capacity: KeyIndexCache(capacity=capacity),
        lambda cache, i: cache.full(table, columns[i]),
        lambda cache: cache.stats(),
        lambda cache: cache.clear(),
        "capacity",
    )


def _executor_memo(db):
    queries = _distinct_queries(db, 3)
    return (
        lambda capacity: CardinalityExecutor(db, cache_capacity=capacity),
        lambda executor, i: executor.cardinality(queries[i]),
        lambda executor: executor.cache_stats(),
        lambda executor: executor.clear_cache(),
        "cache_capacity",
    )


@pytest.mark.parametrize(
    "adapter", [_cardinality_cache, _plan_cache, _key_index_cache, _executor_memo]
)
def test_bounded_lru_contract(adapter, stats_db):
    build, use, stats, clear, parameter = adapter(stats_db)
    cache = build(2)
    use(cache, 0)
    use(cache, 1)
    assert (stats(cache)["hits"], stats(cache)["misses"]) == (0, 2)
    use(cache, 0)  # a hit makes 0 the most recently used
    assert stats(cache)["hits"] == 1
    use(cache, 2)  # over capacity: 1 goes, though 0 was inserted first
    assert stats(cache)["evictions"] == 1
    assert stats(cache)["entries"] == 2
    use(cache, 0)
    assert stats(cache)["hits"] == 2
    use(cache, 1)
    assert stats(cache)["misses"] == 4
    got = stats(cache)
    assert set(got) >= {"entries", "hits", "misses", "evictions", "hit_rate"}
    assert got["hit_rate"] == got["hits"] / (got["hits"] + got["misses"])
    clear(cache)
    assert stats(cache) == {**got, "entries": 0}  # the counters describe the session
    for capacity in (0, -1):
        with pytest.raises(ValueError, match=rf"^{parameter} must be positive"):
            build(capacity)


def test_cache_key_distinguishes_equal_text_different_tag(stats_db, stats_workload):
    """Two estimators never share entries even for identical queries."""
    q = stats_workload[0]
    cache = CardinalityCache()
    e1 = HistogramEstimator(stats_db)
    e2 = HistogramEstimator(stats_db)
    cache.insert(estimator_cache_tag(e1), q, 1.0)
    assert cache.lookup(estimator_cache_tag(e2), q) is None


# -- cache tags track estimator and data changes ------------------------------


def test_tag_changes_on_refit(stats_db, stats_train_data):
    train_q, train_c = stats_train_data
    est = MLPQueryEstimator(stats_db, epochs=2, seed=0)
    est.fit(train_q, train_c)
    tag1 = estimator_cache_tag(est)
    est.fit(train_q, train_c)
    assert estimator_cache_tag(est) != tag1


def test_tag_changes_on_injection(stats_db, stats_workload):
    inj = InjectedCardinalities(HistogramEstimator(stats_db))
    tag1 = estimator_cache_tag(inj)
    inj.inject(stats_workload[0], 5.0)
    tag2 = estimator_cache_tag(inj)
    assert tag2 != tag1
    inj.clear()
    assert estimator_cache_tag(inj) != tag2


def test_tag_unwraps_scaling(stats_db):
    base = HistogramEstimator(stats_db)
    t1 = estimator_cache_tag(ScaledCardinalities(base, 2.0))
    t2 = estimator_cache_tag(ScaledCardinalities(base, 2.0))
    t3 = estimator_cache_tag(ScaledCardinalities(base, 4.0))
    # Recreated wrappers around the same base share entries; a different
    # factor does not.
    assert t1 == t2
    assert t1 != t3


def test_coster_recomputes_after_data_change():
    db = make_stats_lite(scale=0.1, seed=0)
    gen = WorkloadGenerator(db, seed=3)
    q = gen.workload(1, 2, 3, require_predicate=True)[0]
    cache = CardinalityCache()
    coster = PlanCoster(db, HistogramEstimator(db), cache=cache)
    coster.estimate_cardinality(q)
    coster.estimate_cardinality(q)
    assert cache.stats()["hits"] == 1
    v0 = db.data_version
    table = db.table(q.tables[0])
    table.append_rows(
        {c: table.values(c)[:1] for c in table.column_names}
    )
    assert db.data_version > v0
    misses_before = cache.stats()["misses"]
    coster.estimate_cardinality(q)  # stale entry must not be served
    assert cache.stats()["misses"] == misses_before + 1


# -- planner integration -------------------------------------------------------


def test_replanning_hits_cache_and_keeps_plan(stats_db):
    gen = WorkloadGenerator(stats_db, seed=13)
    query = gen.workload(1, 4, 4, require_predicate=True)[0]
    optimizer = Optimizer(stats_db)
    plan1 = optimizer.plan(query)
    after_first = optimizer.cache_stats()
    plan2 = optimizer.plan(query)
    after_second = optimizer.cache_stats()
    # Second planning answers every sub-query from the cache...
    assert after_second["misses"] == after_first["misses"]
    assert after_second["hits"] > after_first["hits"]
    # ...and produces the identical plan.
    assert plan1.signature() == plan2.signature()


def test_hint_sweep_shares_cache(stats_db):
    gen = WorkloadGenerator(stats_db, seed=17)
    queries = gen.workload(4, 3, 4, require_predicate=True)
    optimizer = Optimizer(stats_db)
    for q in queries:
        for arm in HintSet.bao_arms():
            optimizer.plan(q, hints=arm)
    assert optimizer.cache_stats()["hit_rate"] > 0.5


def test_with_estimator_shares_cache_object(stats_db):
    optimizer = Optimizer(stats_db)
    scaled = optimizer.with_estimator(
        ScaledCardinalities(optimizer.estimator, 10.0)
    )
    assert scaled.cache is optimizer.cache
    gen = WorkloadGenerator(stats_db, seed=19)
    q = gen.workload(1, 3, 3, require_predicate=True)[0]
    scaled.plan(q)
    hits_before = optimizer.cache_stats()["hits"]
    scaled2 = optimizer.with_estimator(
        ScaledCardinalities(optimizer.estimator, 10.0)
    )
    scaled2.plan(q)
    assert optimizer.cache_stats()["hits"] > hits_before


# -- Query-side memoization ----------------------------------------------------


def test_query_memos_and_cache_key(stats_db):
    gen = WorkloadGenerator(stats_db, seed=23)
    q = gen.workload(1, 3, 4, require_predicate=True)[0]
    t = q.tables[0]
    # Memoized accessors return the same object on repeat calls.
    assert q.predicates_on(t) is q.predicates_on(t)
    assert q.joins_on(t) is q.joins_on(t)
    assert q.join_adjacency() is q.join_adjacency()
    assert q.cache_key is q.cache_key
    assert q.cache_key == q.to_sql()
    adj = q.join_adjacency()
    for j in q.joins:
        assert j.right.table in adj[j.left.table]
        assert j.left.table in adj[j.right.table]
    # Sub-queries over the full table set are equivalent to the original.
    assert q.subquery(q.tables).cache_key == q.cache_key
    assert q.is_connected()
