"""E9: regression elimination with Eraser ([62]) and PerfGuard ([18]).

Each learned optimizer runs the same workload three times: unguarded, with
Eraser, and with PerfGuard.  Reported: workload speedup kept, number of
regressions (>1.1x) and the worst regression on the post-warm-up tail,
plus the guard's intervention rate.

Expected shape ([62]): Eraser removes most of the regression *tail* while
keeping a meaningful share of the improvement; PerfGuard is the
conservative extreme -- near-zero regressions, little improvement kept.
"""

from benchmarks.contract import Table, imdb_db, imdb_optimizer, imdb_simulator, table_export
from repro.core import RetrainCadence
from repro.costmodel import PlanFeaturizer
from repro.e2e import BaoOptimizer, LeroOptimizer, OptimizationLoop
from repro.regression import Eraser, PerfGuard
from repro.sql import WorkloadGenerator


def measure(seed=0):
    db, optimizer, simulator = imdb_db(), imdb_optimizer(), imdb_simulator()
    workload = WorkloadGenerator(db, seed=41 + seed).workload(
        220, 2, 5, require_predicate=True
    )
    train = WorkloadGenerator(db, seed=42 + seed).workload(
        50, 2, 5, require_predicate=True
    )
    featurizer = PlanFeaturizer(db, optimizer.estimator)

    def make_learned(kind):
        if kind == "bao":
            return BaoOptimizer(optimizer, seed=seed)
        lero = LeroOptimizer(optimizer, seed=seed)
        lero.train_offline(train, simulator.latency)
        return lero

    rows = []
    for kind in ("bao", "lero"):
        for guard_name in ("none", "eraser", "perfguard"):
            guard = None
            if guard_name == "eraser":
                guard = Eraser(featurizer)
            elif guard_name == "perfguard":
                guard = PerfGuard(featurizer)
            learned = make_learned(kind)
            policies = [RetrainCadence(learned, every=25)]
            if guard_name == "perfguard":
                policies.append(RetrainCadence(guard, every=30))
            loop = OptimizationLoop(
                learned, simulator, optimizer, guard=guard, policies=policies
            )
            loop.run(workload)
            s = loop.summary(tail=110)
            rows.append(
                (
                    kind,
                    guard_name,
                    s["workload_speedup"],
                    s["n_regressions"],
                    s["worst_regression"],
                    guard.intervention_rate if guard else 0.0,
                )
            )
    return [
        Table(
            "E9: learned optimizers x regression guards (tail of 110 queries)",
            ["optimizer", "guard", "speedup", "regressions", "worst", "intervention"],
            rows,
            note="guards trade improvement for tail safety; perfguard is the conservative extreme",
        )
    ]


export = table_export(measure)


def test_e9_regression_elimination():
    (table,) = measure()
    print(table.render())
    outcomes = {(r["optimizer"], r["guard"]): r for r in table.records()}
    for kind in ("bao", "lero"):
        none = outcomes[(kind, "none")]
        eraser = outcomes[(kind, "eraser")]
        pg = outcomes[(kind, "perfguard")]
        # PerfGuard's contract: (almost) no regressions left.
        assert pg["worst"] <= max(none["worst"], 1.3)
        # Eraser keeps a working optimizer (not a catastrophic one).
        assert eraser["speedup"] > 0.85
