"""P8: pessimistic cardinality bounds and the bound-violation guard.

Four properties are measured and gated:

1. **Bound soundness**: on clean code both pessimistic estimators (the
   MCV join bound and the AGM-style sketch bound) must satisfy
   ``bound >= exact count`` on every enumerated connected subquery of the
   workload, pass the standard estimator contracts, and dominate the
   traditional point estimator (within interpolation slack) -- **zero
   violations**.
2. **Guard visibility**: under an injected fault storm every estimate
   that crosses its certified bound must trip the
   :class:`repro.faults.BoundGuard` -- counters, ``bounds.*`` telemetry
   and ``bound_violation`` events must all agree, the circuit breaker
   must open, and a fault-free run of the same scenario must report zero
   violations and zero trips.
3. **Risk-bounded planning pays off**: under adversarial hot-key drift
   (stale point statistics believe the exploding joins are empty), the
   pessimistic arm (``risk="worst_case"`` + refreshed bounds) must beat
   the optimistic arm on p99 serving latency.
4. **Determinism**: two same-seed runs must export byte-identical
   reports and telemetry.

Gates: ``python -m pytest`` on this file; deterministic export:
``python -m benchmarks p8 --export out.json``.
"""

import json

import numpy as np

from repro.bench import render_stats, render_table
from repro.cardest.bounds import AGMSketchBoundEstimator, MCVJoinBoundEstimator
from repro.engine import CardinalityExecutor
from repro.faults import FaultPlan
from repro.optimizer import TraditionalCardinalityEstimator
from repro.oracle import EstimatorContractChecker
from repro.serve import Served, adversarial_drift_scenario, bound_guard_scenario
from repro.sql import WorkloadGenerator
from repro.storage.datasets import make_stats_lite

SCALE = 0.2
N_SESSIONS = 4
# Histogram interpolation on narrow ranges can put the point estimate a
# few percent above the (near-exact) sketch bound; a real undercounting
# bug (e.g. the /8 bound_undercounts mutation) blows well past this.
_DOMINATES_SLACK = 1.1


def soundness_pass(seed: int = 0) -> dict:
    """Gate 1: zero bound violations for both pessimistic estimators."""
    db = make_stats_lite(scale=SCALE, seed=seed)
    queries = WorkloadGenerator(db, seed=seed + 17).workload(
        16, 1, 3, require_predicate=True
    )
    executor = CardinalityExecutor(db)
    point = TraditionalCardinalityEstimator(db)
    out = {}
    for est in (MCVJoinBoundEstimator(db), AGMSketchBoundEstimator(db)):
        checker = EstimatorContractChecker(db, est)
        violations = list(checker.check_workload(queries))
        violations += checker.check_bound_soundness(queries, executor=executor)
        violations += checker.check_bound_dominates(
            point, queries, tolerance=_DOMINATES_SLACK
        )
        out[type(est).__name__] = {
            "checks": checker.checks_run,
            "violations": sorted(str(v) for v in violations),
        }
    return out


def guard_pass(seed: int = 0) -> dict:
    """Gate 2: faulted run trips visibly; clean run stays silent."""
    results = {}
    for label, plan in (("faulted", None), ("clean", FaultPlan(()))):
        scenario = bound_guard_scenario(
            scale=SCALE, seed=seed, n_queries=64, n_sessions=N_SESSIONS, plan=plan
        )
        scenario.run()
        guard = scenario.bound_guard
        snap = scenario.runtime.telemetry.snapshot()
        counters = snap["counters"]
        events = [
            e for e in snap["events"] if e.get("kind") == "bound_violation"
        ]
        results[label] = {
            "stats": guard.stats(),
            "telemetry": {
                k: v for k, v in sorted(counters.items())
                if k.startswith("bounds.")
            },
            "events": len(events),
        }
    return results


def drift_pass(seed: int = 0) -> dict:
    """Gate 3: p99 latency, optimistic vs pessimistic, same drift."""
    out = {}
    for arm, pessimistic in (("optimistic", False), ("pessimistic", True)):
        scenario = adversarial_drift_scenario(
            pessimistic=pessimistic,
            scale=SCALE,
            seed=seed,
            n_queries=90,
            n_sessions=N_SESSIONS,
        )
        report = scenario.run()
        lat = np.array(
            [r.latency_ms for r in report.outcomes if isinstance(r, Served)]
        )
        out[arm] = {
            "served": int(lat.size),
            "rejected": int(report.n_requests - lat.size),
            "p50_ms": round(float(np.percentile(lat, 50)), 4),
            "p99_ms": round(float(np.percentile(lat, 99)), 4),
            "max_ms": round(float(lat.max()), 4),
        }
    return out


def export(seed: int = 0) -> str:
    """The full deterministic report: all three gates, one JSON blob."""
    payload = {
        "seed": seed,
        "soundness": soundness_pass(seed=seed),
        "guard": guard_pass(seed=seed),
        "drift": drift_pass(seed=seed),
    }
    return json.dumps(payload, sort_keys=True, indent=1)


def test_p8_bound_soundness_zero_violations():
    out = soundness_pass(seed=0)
    rows = []
    for name, res in sorted(out.items()):
        rows.append((name, res["checks"], len(res["violations"])))
        assert res["checks"] > 0, f"{name} ran no checks"
        assert not res["violations"], (
            f"{name} bound violations:\n" + "\n".join(res["violations"])
        )
    print(
        render_table(
            "P8: bound soundness",
            ["estimator", "checks", "violations"],
            rows,
        )
    )


def test_p8_guard_trips_are_visible():
    results = guard_pass(seed=0)
    faulted, clean = results["faulted"], results["clean"]
    stats = faulted["stats"]
    assert stats["estimate_violations"] > 0, "fault storm tripped nothing"
    assert stats["breaker_trips"] >= 1, "breaker never opened under faults"
    assert stats["fallback_served"] > 0, "no fallback routing under faults"
    tele = faulted["telemetry"]
    assert tele.get("bounds.checked", 0) == stats["checked"]
    assert tele.get("bounds.estimate_violations", 0) == stats["estimate_violations"]
    violations = stats["estimate_violations"] + stats["bound_violations"]
    assert faulted["events"] == violations, (
        f"{violations} violations but {faulted['events']} events"
    )
    assert clean["stats"]["estimate_violations"] == 0, "clean run tripped"
    assert clean["stats"]["bound_violations"] == 0
    assert clean["stats"]["breaker_trips"] == 0
    assert clean["events"] == 0
    print(render_stats(stats, title="P8: guard under faults"))
    print(render_stats(clean["stats"], title="P8: guard on clean serving"))


def test_p8_pessimistic_p99_beats_optimistic_under_drift():
    out = drift_pass(seed=0)
    print(
        render_table(
            "P8: adversarial drift, optimistic vs pessimistic",
            ["arm", "served", "rejected", "p50_ms", "p99_ms", "max_ms"],
            [
                (arm, r["served"], r["rejected"], r["p50_ms"], r["p99_ms"], r["max_ms"])
                for arm, r in sorted(out.items())
            ],
            note="same seed, same workload, same drift; only the risk mode differs",
        )
    )
    assert out["pessimistic"]["p99_ms"] < out["optimistic"]["p99_ms"], (
        f"pessimistic p99 {out['pessimistic']['p99_ms']} did not beat "
        f"optimistic {out['optimistic']['p99_ms']}"
    )


def test_p8_determinism_same_seed_same_export():
    exports, telemetry = [], []
    for _ in range(2):
        exports.append(export(seed=3))
        scenario = bound_guard_scenario(
            scale=0.2, seed=3, n_queries=48, n_sessions=4
        )
        scenario.run()
        telemetry.append(scenario.runtime.telemetry.to_json())
    assert exports[0] == exports[1], "same-seed bound reports diverged"
    assert telemetry[0] == telemetry[1], "same-seed guard telemetry diverged"
