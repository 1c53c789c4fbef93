"""E7: Bao vs the native optimizer over training episodes ([37]-style).

Runs Bao on a 300-query JOB-style workload with execution feedback,
reporting the workload-speedup learning curve (windows of 50 queries) and
the final-tail latency distribution vs native -- the two exhibits Bao's
evaluation leads with.

Expected shape: ~1x during warm-up (Bao ships native plans), rising past
1.2-1.5x once the latency model converges, with the tail (p99) improving
at least as much as the median.  E7b also reports the model's size: the
bytes of its ensemble members' parameters (deterministic, not timed).
"""

from benchmarks.contract import Table, imdb_db, imdb_optimizer, imdb_simulator, table_export
from repro.core import RetrainCadence
from repro.e2e import BaoOptimizer, OptimizationLoop
from repro.sql import WorkloadGenerator


def measure(seed=0):
    optimizer, simulator = imdb_optimizer(), imdb_simulator()
    workload = WorkloadGenerator(imdb_db(), seed=21 + seed).workload(
        300, 2, 5, require_predicate=True
    )
    bao = BaoOptimizer(optimizer, seed=seed)
    loop = OptimizationLoop(
        bao, simulator, optimizer, policies=[RetrainCadence(bao, every=25)]
    )
    loop.run(workload)
    windows = []
    for start in range(0, len(workload), 50):
        chunk = loop.results[start : start + 50]
        lat = sum(r.latency_ms for r in chunk)
        nat = sum(r.native_latency_ms for r in chunk)
        reg = sum(1 for r in chunk if r.regression > 1.1)
        windows.append((f"{start}-{start+50}", nat / max(lat, 1e-9), reg))
    tail = loop.summary(tail=100)
    member_bytes = sum(m.flat_params.nbytes for m in bao.risk_model.members())
    return [
        Table(
            "E7: Bao workload-speedup learning curve (windows of 50 queries)",
            ["queries", "speedup (native/bao)", "regressions"],
            windows,
        ),
        Table(
            "E7b: final tail of 100 queries, Bao vs native",
            ["speedup", "native_p99_ms", "bao_p99_ms", "worst_regression", "member_bytes"],
            [(
                tail["workload_speedup"],
                tail["native_p99_latency_ms"],
                tail["p99_latency_ms"],
                tail["worst_regression"],
                member_bytes,
            )],
        ),
    ]


export = table_export(measure)


def test_e7_bao_learning_curve():
    curve, tail = measure()
    print(curve.render())
    print(tail.render())
    windows = curve.records()
    # Early windows pay Thompson-sampling exploration cost; later windows
    # must recover it and beat native (the Bao learning-curve shape).
    first_window_speedup = windows[0]["speedup (native/bao)"]
    last_window_speedup = windows[-1]["speedup (native/bao)"]
    assert last_window_speedup > first_window_speedup
    assert last_window_speedup > 1.1, "Bao should beat native after training"
    assert tail.records()[0]["speedup"] > 1.1
    early_regressions = windows[0]["regressions"]
    late_regressions = windows[-1]["regressions"]
    assert late_regressions <= early_regressions, "regressions should fade with training"
