"""Bao vs Lero with execution feedback, then Eraser on top.

Runs the two flagship end-to-end learned optimizers (paper §2.2) against
the native optimizer on a JOB-style workload, prints their learning
curves, and shows the Eraser plugin (§2.2.2) trimming the regression tail.

Run:  python examples/bao_vs_lero.py
"""

from repro.bench import render_table
from repro.core import RetrainCadence
from repro.costmodel import PlanFeaturizer
from repro.e2e import BaoOptimizer, LeroOptimizer, OptimizationLoop
from repro.engine import ExecutionSimulator
from repro.optimizer import Optimizer
from repro.regression import Eraser
from repro.sql import WorkloadGenerator
from repro.storage import make_imdb_lite


def window_speedups(loop, window=50):
    rows = []
    for start in range(0, len(loop.results), window):
        chunk = loop.results[start : start + window]
        native = sum(r.native_latency_ms for r in chunk)
        learned = sum(r.latency_ms for r in chunk)
        rows.append(native / max(learned, 1e-9))
    return rows


def main() -> None:
    db = make_imdb_lite(scale=0.6)
    optimizer = Optimizer(db)
    simulator = ExecutionSimulator(db)
    gen = WorkloadGenerator(db, seed=21)
    train = gen.workload(60, 2, 5, require_predicate=True)
    workload = WorkloadGenerator(db, seed=22).workload(
        250, 2, 5, require_predicate=True
    )

    # Bao: learns online from its own executions, refitting every 25.
    bao = BaoOptimizer(optimizer, seed=0)
    bao_loop = OptimizationLoop(
        bao, simulator, optimizer, policies=[RetrainCadence(bao, every=25)]
    )
    bao_loop.run(workload)

    # Lero: collect plan pairs offline first, then serve.
    lero = LeroOptimizer(optimizer, seed=0)
    pairs = lero.train_offline(train, simulator.latency)
    lero_loop = OptimizationLoop(
        lero, simulator, optimizer, policies=[RetrainCadence(lero, every=25)]
    )
    lero_loop.run(workload)
    print(f"lero trained on {pairs} labelled plan pairs\n")

    curves = [
        (f"{i*50}-{(i+1)*50}", b, l)
        for i, (b, l) in enumerate(
            zip(window_speedups(bao_loop), window_speedups(lero_loop))
        )
    ]
    print(render_table(
        "workload speedup over native (windows of 50 queries)",
        ["queries", "bao", "lero"],
        curves,
    ))

    rows = []
    for name, loop in (("bao", bao_loop), ("lero", lero_loop)):
        s = loop.summary(tail=125)
        rows.append((name, s["workload_speedup"], s["n_regressions"], s["worst_regression"]))
    print(render_table(
        "post-warm-up tail (125 queries)",
        ["system", "speedup", "regressions", "worst regression"],
        rows,
    ))

    # Eraser as a plugin on top of Bao: trade some speedup for tail safety.
    featurizer = PlanFeaturizer(db, optimizer.estimator)
    guarded_bao = BaoOptimizer(optimizer, seed=0)
    guarded = OptimizationLoop(
        guarded_bao, simulator, optimizer,
        guard=Eraser(featurizer),
        policies=[RetrainCadence(guarded_bao, every=25)],
    )
    guarded.run(workload)
    s = guarded.summary(tail=125)
    print(f"\nbao + eraser: speedup={s['workload_speedup']:.2f}, "
          f"regressions={s['n_regressions']}, worst={s['worst_regression']:.2f}x")


if __name__ == "__main__":
    main()
