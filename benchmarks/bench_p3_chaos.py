"""P3: the serving stack under deterministic fault injection.

Three resilience properties are measured and gated:

1. **Availability under chaos**: a canary deployment planning through a
   faulty estimator (crashes, NaN/Inf, garbage magnitudes, stale
   statistics) with a crashing/stalling learned optimizer must still
   drain its whole schedule -- every query answered, zero unhandled
   exceptions -- because each failure is absorbed by a rung of the
   degradation ladder (fallback estimator, circuit breakers, degraded
   native serving).
2. **Fault accounting**: every injected fault must be visible in the
   telemetry bus, per fault class (``faults.injected.*``) and per target
   (``faults.target.*``), matching the injector's own counters exactly.
3. **Determinism**: two same-seed chaos runs must produce byte-identical
   telemetry exports.  Faults, breaker transitions and fallbacks are part
   of the reproducible record, not noise.

Gates: ``python -m pytest`` on this file; deterministic export:
``python -m benchmarks p3 --export out.json``.
"""

from repro.bench import render_stats, render_table
from repro.serve import bound_guard_scenario, chaos_scenario

SCALE, N_QUERIES = 0.3, 160


def _chaos(seed: int = 0):
    return chaos_scenario(scale=SCALE, seed=seed, n_queries=N_QUERIES)


def export(seed: int = 0) -> str:
    """The deterministic telemetry export CI diffs across two processes."""
    scenario = _chaos(seed)
    scenario.run()
    return scenario.deployment.telemetry.to_json()


def _fault_counters_from_bus(snapshot: dict) -> dict:
    """The per-class / per-target fault counters as the bus recorded them."""
    return {
        k: v
        for k, v in snapshot["counters"].items()
        if k.startswith("faults.")
    }


def test_p3_chaos_workload_completes():
    scenario = _chaos(seed=0)
    report = scenario.run()
    assert report.n_served == report.n_requests, "chaos run shed queries"
    assert scenario.injector.total_injected() > 0, "no faults fired"
    deployment = scenario.deployment
    # Faults really hit the serving path and were absorbed, not avoided.
    assert deployment.learned_failures + deployment.degraded_serves > 0
    snap = deployment.telemetry.snapshot()
    lat = snap["histograms"]["latency_ms"]
    print(
        render_table(
            f"P3: chaos serving, {report.n_requests} requests",
            ["served", "faults", "learned_failures", "degraded",
             "breaker_trips", "p50_ms", "p99_ms"],
            [(
                report.n_served,
                scenario.injector.total_injected(),
                deployment.learned_failures,
                deployment.degraded_serves,
                deployment.breaker.trips,
                lat["p50"],
                lat["p99"],
            )],
        )
    )
    print(render_stats(scenario.injector.stats(), title="fault injection"))


def test_p3_fault_counters_reach_telemetry():
    scenario = _chaos(seed=1)
    scenario.run()
    snap = scenario.deployment.telemetry.snapshot()
    bus_counters = _fault_counters_from_bus(snap)
    assert bus_counters, "no faults.* counters on the bus"
    # Bus accounting must match the injector's ground truth per class.
    by_kind: dict[str, int] = {}
    by_target: dict[str, int] = {}
    for key, count in scenario.injector.counters.items():
        target, kind = key.split(".", 1)
        by_kind[kind] = by_kind.get(kind, 0) + count
        by_target[target] = by_target.get(target, 0) + count
    for kind, count in by_kind.items():
        assert bus_counters[f"faults.injected.{kind}"] == count
    for target, count in by_target.items():
        assert bus_counters[f"faults.target.{target}"] == count
    print(
        render_table(
            "P3: fault classes on the telemetry bus",
            ["counter", "count"],
            sorted(bus_counters.items()),
        )
    )


def test_p3_bound_guard_absorbs_fault_storm():
    """The bound-guard rung of the ladder under its own fault storm:
    every query answered, every certificate crossing routed to fallback."""
    scenario = bound_guard_scenario(scale=SCALE, seed=0, n_queries=N_QUERIES)
    report = scenario.run()
    assert report.n_served == report.n_requests, "guarded run shed queries"
    stats = scenario.bound_guard.stats()
    assert stats["estimate_violations"] > 0, "fault storm never crossed a bound"
    assert stats["fallback_served"] > 0
    print(render_stats(stats, title="P3: bound guard under chaos"))


def test_p3_determinism_same_seed_same_export():
    assert export(seed=3) == export(seed=3), (
        "same-seed chaos runs diverged (fault injection is not deterministic)"
    )
