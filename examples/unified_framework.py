"""Build your own learned optimizer from the unified framework (§2.2).

The tutorial's key abstraction: every end-to-end learned optimizer =
a *plan exploration strategy* + a *learned risk model*.  This example
composes a brand-new optimizer from spare parts -- a custom exploration
strategy (union of hint-set and cardinality-scaling candidates) with the
variance-filtered ensemble risk model -- drops it into the generic
``LearnedOptimizer`` loop, and protects it with Eraser.  No new learning
code required.

Run:  python examples/unified_framework.py
"""

from repro.bench import render_table
from repro.core.framework import LearnedOptimizer, RetrainCadence
from repro.costmodel import PlanFeaturizer
from repro.e2e import (
    CardinalityScalingExploration,
    EnsembleLatencyModel,
    HintSetExploration,
    OptimizationLoop,
)
from repro.engine import ExecutionSimulator
from repro.optimizer import Optimizer
from repro.regression import Eraser
from repro.sql import WorkloadGenerator
from repro.storage import make_imdb_lite


class UnionExploration:
    """Custom strategy: explore hint sets *and* cardinality scalings."""

    def __init__(self, optimizer):
        self.hints = HintSetExploration(optimizer)
        self.scales = CardinalityScalingExploration(optimizer)

    def candidates(self, query):
        merged, seen = [], set()
        for cand in self.hints.candidates(query) + self.scales.candidates(query):
            sig = cand.plan.signature()
            if sig not in seen:
                seen.add(sig)
                merged.append(cand)
        return merged


def main() -> None:
    db = make_imdb_lite(scale=0.6)
    optimizer = Optimizer(db)
    simulator = ExecutionSimulator(db)
    featurizer = PlanFeaturizer(db, optimizer.estimator)

    mine = LearnedOptimizer(
        exploration=UnionExploration(optimizer),
        risk_model=EnsembleLatencyModel(featurizer, seed=0),
        name="union+variance",
    )
    guard = Eraser(featurizer)
    # When to refit is set here, where the stack is built: every 25 feedbacks.
    loop = OptimizationLoop(
        mine, simulator, optimizer, guard=guard,
        policies=[RetrainCadence(mine, every=25)],
    )

    workload = WorkloadGenerator(db, seed=33).workload(
        200, 2, 5, require_predicate=True
    )
    loop.run(workload)

    s = loop.summary(tail=100)
    print(render_table(
        "custom optimizer: union exploration + variance risk + eraser guard",
        ["metric", "value"],
        [
            ("workload speedup vs native", s["workload_speedup"]),
            ("p99 latency (ms)", s["p99_latency_ms"]),
            ("native p99 (ms)", s["native_p99_latency_ms"]),
            ("regressions (>1.1x)", s["n_regressions"]),
            ("worst regression", s["worst_regression"]),
            ("eraser intervention rate", guard.intervention_rate),
        ],
    ))
    sources = {}
    for r in loop.results[-100:]:
        sources[r.plan_source] = sources.get(r.plan_source, 0) + 1
    print("\nwinning candidate sources on the tail:", sources)


if __name__ == "__main__":
    main()
