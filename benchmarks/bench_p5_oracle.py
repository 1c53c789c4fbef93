"""P5: the plan-correctness oracle as a gated benchmark.

Three properties are measured and gated:

1. **Clean run**: on unmutated code, every oracle layer -- differential
   plan equivalence (all enumerated plan shapes vs the exact count),
   metamorphic transforms, estimator contracts (including the domain
   probes and the ``estimates_version`` bump), bound soundness (the
   pessimistic estimator's certificate holds on every enumerated
   subquery and dominates the point estimate), the deep-chain
   closed-form differential and a sampled online audit of a live serving
   run -- must report **zero violations**.
2. **Mutation catch rate**: re-introducing each catalogued bug (the
   seeded mutations in :mod:`repro.oracle.mutations`, which include the
   satellite bugs this PR fixed) must be detected by at least one layer;
   the gate requires >= 90% of >= 10 mutations caught.
3. **Determinism**: two same-seed oracle passes must export byte-identical
   reports (and the audited serving run byte-identical telemetry).

Gates: ``python -m pytest`` on this file; deterministic export:
``python -m benchmarks p5 --export out.json``.
"""

import numpy as np

from repro.bench import render_table
from repro.cardest.bounds import MCVJoinBoundEstimator
from repro.cardest.querydriven import LinearQueryEstimator
from repro.engine import CardinalityExecutor
from repro.optimizer import TraditionalCardinalityEstimator
from repro.oracle import (
    EstimatorContractChecker,
    MetamorphicSuite,
    OracleReport,
    PlanEquivalenceChecker,
    Violation,
    apply_mutation,
    mutation_names,
    reference_count,
)
from repro.oracle.fixtures import make_deep_chain
from repro.serve.scenarios import steady_state_scenario
from repro.sql import WorkloadGenerator
from repro.storage.datasets import make_stats_lite

SCALE = 0.2


def _workload(db, seed: int, n: int):
    gen = WorkloadGenerator(db, seed=seed)
    return gen.workload(n, 1, 3, require_predicate=True)


def oracle_pass(seed: int = 0) -> OracleReport:
    """One full oracle pass; all layers merged into a single report."""
    db = make_stats_lite(scale=SCALE, seed=seed)
    queries = _workload(db, seed + 17, 8)
    report = OracleReport()

    # Layer 1: every enumerated plan shape vs the exact count.
    equivalence = PlanEquivalenceChecker(db)
    report.extend(equivalence.check_workload(queries))
    report.record_check("plan_equivalence", equivalence.plans_checked)

    # Layer 2: result-preserving query transforms.
    metamorphic = MetamorphicSuite(db)
    report.extend(metamorphic.check_workload(queries))
    report.record_check("metamorphic", metamorphic.checks_run)

    # Layer 3: estimator contracts + domain probes + version bump.
    contracts = EstimatorContractChecker(
        db, TraditionalCardinalityEstimator(db)
    )
    report.extend(contracts.check_workload(queries))
    report.extend(contracts.check_domain_contracts())
    executor = CardinalityExecutor(db)
    cards = np.array([executor.cardinality(q) for q in queries], dtype=float)
    learned = LinearQueryEstimator(db).fit(list(queries), cards)
    learned_contracts = EstimatorContractChecker(db, learned, monotonic=False)
    report.extend(
        learned_contracts.check_version_bump(
            lambda est: est.fit(list(queries), cards)
        )
    )
    report.record_check("contract", contracts.checks_run + 1)

    # Layer 3b: bound soundness -- the pessimistic estimator's certificate
    # (bound >= exact count on every enumerated subquery, and bound
    # dominates the point estimate it certifies).
    bounds = MCVJoinBoundEstimator(db)
    bound_contracts = EstimatorContractChecker(db, bounds)
    report.extend(bound_contracts.check_bound_soundness(queries, executor=executor))
    # 10% slack: histogram interpolation on narrow ranges overshoots the
    # (near-exact) sketch bound by a few percent; a genuine undercounting
    # bug (e.g. the bound_undercounts mutation, /8) blows well past it.
    report.extend(
        bound_contracts.check_bound_dominates(
            TraditionalCardinalityEstimator(db), queries, tolerance=1.1
        )
    )
    report.record_check("bound", bound_contracts.checks_run)

    # Layer 4a: deep-chain differential -- executor vs independent
    # reference vs the closed-form count (past float64 exactness).
    chain_db, chain_q, expected = make_deep_chain(8, seed=seed)
    got = CardinalityExecutor(chain_db).cardinality(chain_q)
    if got != expected:
        report.extend(
            [
                Violation(
                    "plan_equivalence",
                    "chain_closed_form",
                    str(chain_q),
                    str(expected),
                    str(got),
                    detail="executor diverged from the closed-form count",
                )
            ]
        )
    ref = reference_count(chain_db, chain_q)
    if ref != expected:
        report.extend(
            [
                Violation(
                    "plan_equivalence",
                    "reference_closed_form",
                    str(chain_q),
                    str(expected),
                    str(ref),
                    detail="reference counter diverged from the closed form",
                )
            ]
        )
    # Domain probes against the probe table's engineered edge columns.
    chain_contracts = EstimatorContractChecker(
        chain_db, TraditionalCardinalityEstimator(chain_db)
    )
    report.extend(chain_contracts.check_domain_contracts())
    report.record_check("plan_equivalence", 2)
    report.record_check("contract", chain_contracts.checks_run)

    # Layer 4b: sampled online audit of a live serving run.
    scenario = steady_state_scenario(
        scale=SCALE, seed=seed, n_queries=32, n_sessions=4, audit_every=8
    )
    scenario.run()
    report.merge(scenario.auditor.report)
    report.record_check("audit", scenario.auditor.stats()["audited"])
    return report


def export(seed: int = 0) -> str:
    """The deterministic oracle report CI diffs across two processes."""
    return oracle_pass(seed).to_json()


def test_p5_clean_run_zero_violations():
    report = oracle_pass(seed=0)
    assert report.clean, "clean code produced oracle violations:\n" + "\n".join(
        str(v) for v in report.violations
    )
    assert report.checks.get("plan_equivalence", 0) > 0
    assert report.checks.get("metamorphic", 0) > 0
    assert report.checks.get("contract", 0) > 0
    assert report.checks.get("bound", 0) > 0
    assert report.checks.get("audit", 0) > 0
    by_layer = report.by_layer()
    print(
        render_table(
            "P5: clean oracle pass",
            ["layer", "checks", "violations"],
            [
                (layer, count, by_layer.get(layer, 0))
                for layer, count in sorted(report.checks.items())
            ],
        )
    )


def test_p5_mutation_catch_rate():
    caught, missed = [], []
    for name in mutation_names():
        try:
            with apply_mutation(name):
                report = oracle_pass(seed=0)
            detected = report.n_violations > 0
        except Exception:
            detected = True  # a loud crash under mutation is detection too
        (caught if detected else missed).append(name)
    total = len(caught) + len(missed)
    assert total >= 10, f"mutation catalogue too small ({total})"
    rate = len(caught) / total
    print(
        render_table(
            f"P5: mutation catch rate {len(caught)}/{total} ({rate:.0%})",
            ["mutation", "caught"],
            [(n, "yes") for n in caught] + [(n, "NO") for n in missed],
        )
    )
    assert rate >= 0.9, f"oracle missed mutations: {missed}"


def test_p5_determinism_same_seed_same_export():
    exports, telemetry = [], []
    for _ in range(2):
        exports.append(export(seed=3))
        scenario = steady_state_scenario(
            scale=0.2, seed=3, n_queries=32, n_sessions=4, audit_every=8
        )
        scenario.run()
        telemetry.append(scenario.runtime.telemetry.to_json())
    assert exports[0] == exports[1], "same-seed oracle reports diverged"
    assert telemetry[0] == telemetry[1], (
        "same-seed audited serving runs diverged"
    )
