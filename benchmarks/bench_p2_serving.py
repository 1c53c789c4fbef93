"""P2: the serving runtime -- sustained throughput, tail latency, determinism.

Three serving properties are measured and gated:

1. **Steady state**: a canary deployment (Bao staged at 50% traffic) under
   8 concurrent sessions must drain its whole schedule -- every request
   either served or shed with a typed reason -- and the report prints
   sustained queries/sec (simulated and wall) with p50/p95/p99 latency
   from the telemetry histograms, plus the planner cardinality-cache
   counters.
2. **Determinism**: two runs with the same seed and config must produce
   *byte-identical* telemetry snapshots (JSON compared as strings).  This
   is the contract that makes serving experiments reproducible at all;
   any divergence fails the benchmark.
3. **Lifecycle under fire**: the injected-regression scenario must end
   rolled back, with the rollback visible as a telemetry event.

Gates (well under 60 s): ``python -m pytest`` on this file; deterministic
export: ``python -m benchmarks p2 --export out.json``.
"""

from repro.bench import render_stats, render_table
from repro.serve import (
    RuntimeConfig,
    injected_regression_scenario,
    steady_state_scenario,
)

SCALE, N_QUERIES = 0.3, 160
N_SESSIONS = 8


def _steady(seed: int = 0):
    return steady_state_scenario(
        scale=SCALE,
        seed=seed,
        n_queries=N_QUERIES,
        n_sessions=N_SESSIONS,
        config=RuntimeConfig(timeout_ms=None, queue_capacity=None),
    )


def export(seed: int = 0) -> str:
    """The deterministic telemetry export CI diffs across two processes."""
    scenario = _steady(seed)
    scenario.run()
    return scenario.deployment.telemetry.to_json()


def test_p2_steady_state_throughput():
    scenario = _steady()
    report = scenario.run()
    assert report.n_served + sum(report.rejected.values()) == report.n_requests
    assert report.n_served == report.n_requests  # no shedding when healthy
    snap = scenario.deployment.telemetry.snapshot()
    lat = snap["histograms"]["latency_ms"]
    print(
        render_table(
            f"P2: steady-state serving, {N_SESSIONS} sessions x "
            f"{report.n_requests} requests",
            [
                "served",
                "sim_qps",
                "wall_qps",
                "p50_ms",
                "p95_ms",
                "p99_ms",
                "max_ms",
            ],
            [(
                report.n_served,
                report.simulated_qps,
                report.wall_qps,
                lat["p50"],
                lat["p95"],
                lat["p99"],
                lat["max"],
            )],
        )
    )
    print(render_stats(snap["gauges"]["cardinality_cache"], title="cardinality cache"))
    assert lat["count"] == report.n_served
    assert lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"]


def test_p2_determinism_same_seed_same_snapshot():
    """Byte-identical telemetry across two same-seed concurrent runs."""
    assert export(seed=3) == export(seed=3), (
        "same-seed serving runs diverged (determinism broken)"
    )


def test_p2_admission_control_sheds_deterministically():
    tight = RuntimeConfig(timeout_ms=10.0, queue_capacity=2, max_in_flight=4)
    runs = []
    for _ in range(2):
        scenario = steady_state_scenario(
            scale=SCALE,
            seed=5,
            n_queries=N_QUERIES // 2,
            n_sessions=N_SESSIONS,
            config=tight,
        )
        report = scenario.run()
        runs.append((report.rejected, scenario.deployment.telemetry.to_json()))
    (rej_a, snap_a), (rej_b, snap_b) = runs
    assert rej_a == rej_b and snap_a == snap_b
    print(
        render_table(
            "P2: admission control under a tight config",
            ["reason", "shed"],
            sorted(rej_a.items()) or [("(none)", 0)],
        )
    )


def test_p2_injected_regression_rolls_back():
    scenario = injected_regression_scenario(scale=SCALE, n_sessions=N_SESSIONS)
    scenario.run()
    assert scenario.deployment.stage.value == "rolled_back"
    events = scenario.deployment.telemetry.events("stage_transition")
    rollbacks = [e for e in events if e["to_stage"] == "rolled_back"]
    assert rollbacks and "regression_window" in rollbacks[0]["reason"]
    print(
        render_table(
            "P2: injected regression lifecycle",
            ["from", "to", "reason", "at_query"],
            [
                (e["from_stage"], e["to_stage"], e["reason"], e["at_query"])
                for e in events
            ],
        )
    )
