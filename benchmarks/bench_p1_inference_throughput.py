"""P1: batched-inference throughput and the cross-plan cardinality cache.

The planner and the e2e optimizers (Bao's arm sweep, Lero's factor sweep)
ask for thousands of sub-query cardinalities per workload; this benchmark
measures the two mechanisms that make that affordable:

1. ``estimate_batch`` -- one featurization + one model forward pass for a
   whole workload, versus the per-query ``estimate`` loop.  Model-backed
   estimators (linear, GBDT, MLP, MSCN) must show a >= 5x speedup;
   loop-fallback estimators (histogram, sampling) are included as the "no
   batch implementation" reference and are only required not to regress.
2. ``CardinalityCache`` -- the shared cross-plan sub-query cache.  A
   caller that re-plans one query once per hint set (PilotScope's Bao
   driver pushes one hint set, pulls one plan; the in-process Bao sweeps
   all arms in one DP pass instead) finds almost every DP-subset estimate
   cached after the first planning, so the hit rate on such a loop must
   exceed 50%.

Expected shape: MLP/MSCN batch at 5-10x their sequential throughput
(featurization amortizes, the forward pass almost vanishes); the cache hit
rate on the arm sweep lands near (arms-1)/arms.
"""

import time

import numpy as np

from benchmarks.contract import Table, stats_db, stats_test, stats_train, table_export
from repro.bench import build_estimator, estimate_workload
from repro.bench.suite import fit_estimator
from repro.optimizer import HintSet, Optimizer
from repro.sql import WorkloadGenerator

#: estimators with a real batched implementation -- must clear BATCH_SPEEDUP_MIN
BATCHED_METHODS = ["linear", "gbdt", "mlp", "mscn"]
#: loop-fallback reference points -- no speedup requirement
FALLBACK_METHODS = ["histogram", "sampling"]
BATCH_SPEEDUP_MIN = 5.0
CACHE_HIT_RATE_MIN = 0.5


def _throughput_row(name, est, queries):
    """(single us/q, batch us/q, ratio, batch): the two paths timed in
    interleaved rounds, one of each per round, so a slow spell of the
    machine lands on both; the best round of each is kept."""
    est.estimate_batch(queries)
    for q in queries:
        est.estimate(q)
    n = len(queries)
    single_us = batch_us = np.inf
    for _ in range(5):
        t0 = time.perf_counter()
        for q in queries:
            est.estimate(q)
        t1 = time.perf_counter()
        batch = est.estimate_batch(queries)
        t2 = time.perf_counter()
        single_us = min(single_us, (t1 - t0) / n * 1e6)
        batch_us = min(batch_us, (t2 - t1) / n * 1e6)
    return single_us, batch_us, single_us / batch_us, batch


def _throughput(seed=0) -> Table:
    train_q, train_c = stats_train(seed)
    test_q, _ = stats_test(seed)
    rows = []
    for name in BATCHED_METHODS + FALLBACK_METHODS:
        est = build_estimator(name, stats_db(), budget="fast", seed=seed)
        fit_estimator(est, train_q, train_c)
        single_us, batch_us, ratio, batch = _throughput_row(name, est, test_q)
        # The batch path must agree with the sequential path.
        seq = np.array([est.estimate(q) for q in test_q])
        assert np.allclose(batch, seq, rtol=1e-9, atol=1e-6), name
        rows.append((name, single_us, batch_us, ratio))
    return Table(
        "P1: sequential vs batched inference (stats_lite, 120 queries)",
        ["method", "single_us_q", "batch_us_q", "speedup_x"],
        rows,
        timing=("single_us_q", "batch_us_q", "speedup_x"),
    )


def _cache_stats(seed=0) -> Table:
    gen = WorkloadGenerator(stats_db(), seed=11 + seed)
    queries = gen.workload(20, 3, 5, require_predicate=True)
    arms = HintSet.bao_arms()
    # Fresh optimizer = fresh cache; one planning per (query, arm), the
    # way PilotScope's BaoDriver pulls plans.
    optimizer = Optimizer(stats_db())
    for q in queries:
        for arm in arms:
            optimizer.plan(q, hints=arm)
    return Table(
        f"P1: cardinality-cache stats, {len(queries)} queries x {len(arms)} Bao arms",
        ["stat", "value"],
        list(optimizer.cache_stats().items()),
    )


def measure(seed=0):
    return [_throughput(seed), _cache_stats(seed)]


export = table_export(measure)


def test_p1_batch_throughput():
    table = _throughput()
    print(table.render())
    ratios = {r["method"]: r["speedup_x"] for r in table.records()}
    for name in BATCHED_METHODS:
        assert ratios[name] >= BATCH_SPEEDUP_MIN, (
            f"{name}: batched speedup {ratios[name]:.1f}x below "
            f"{BATCH_SPEEDUP_MIN}x"
        )
    for name in FALLBACK_METHODS:
        # The loop fallback adds only clamping overhead; anything near 1x
        # (or better) is fine, a large slowdown would mean a broken path.
        assert ratios[name] > 0.5, f"{name}: fallback regressed ({ratios[name]:.2f}x)"


def test_p1_planner_cache_hit_rate():
    table = _cache_stats()
    print(table.render())
    hit_rate = dict(table.rows)["hit_rate"]
    assert hit_rate > CACHE_HIT_RATE_MIN, (
        f"planner cache hit rate {hit_rate:.3f} below {CACHE_HIT_RATE_MIN}"
    )


def test_p1_estimate_workload_matches_loop():
    """The bench-suite choke point agrees with the scalar loop for a
    batched estimator and a fallback estimator alike."""
    train_q, train_c = stats_train()
    test_q, _ = stats_test()
    for name in ["mlp", "histogram"]:
        est = build_estimator(name, stats_db(), budget="fast")
        fit_estimator(est, train_q, train_c)
        batch = estimate_workload(est, test_q)
        seq = np.array([est.estimate(q) for q in test_q])
        assert np.allclose(batch, seq, rtol=1e-9, atol=1e-6), name
