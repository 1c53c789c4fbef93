"""A chaos drill: break the learned stack on purpose, watch it degrade.

Assembles the full serving stack behind a seeded fault plan -- the
cardinality estimator crashes, returns NaN/garbage and serves stale
statistics; the learned optimizer crashes and stalls -- then runs a
concurrent workload through it twice with the same seed.  Every query is
answered (fallback estimator, circuit breakers, degraded native serving),
every fault is accounted on the telemetry bus, and the two runs' telemetry
exports are byte-identical: chaos here is a reproducible experiment, not
noise.

Run:  python examples/chaos_drill.py
"""

from repro.bench import render_stats, render_table
from repro.faults import FaultPlan, FaultSpec
from repro.serve import chaos_scenario


def run_once(seed: int):
    # A harsher mix than the default plan, to make every rung visible:
    # a burst window (calls 40-80) where the learned optimizer always
    # crashes trips its breaker and demonstrates degraded serving.
    plan = FaultPlan(
        (
            FaultSpec(kind="exception", rate=0.10, target="estimator"),
            FaultSpec(kind="nan", rate=0.08, target="estimator"),
            FaultSpec(kind="stale", rate=0.10, target="estimator"),
            FaultSpec(
                kind="exception",
                rate=1.0,
                target="learned",
                start_call=40,
                end_call=48,
            ),
            FaultSpec(
                kind="latency", rate=0.08, target="learned", magnitude=400.0
            ),
        ),
        seed=seed,
    )
    scenario = chaos_scenario(seed=seed, n_queries=150, plan=plan)
    report = scenario.run()
    return scenario, report


def main() -> None:
    scenario, report = run_once(seed=11)
    deployment = scenario.deployment
    print(
        render_table(
            "chaos drill: availability under injected faults",
            ["served", "requests", "faults_injected", "learned_failures",
             "degraded_serves", "breaker_trips"],
            [(
                report.n_served,
                report.n_requests,
                scenario.injector.total_injected(),
                deployment.learned_failures,
                deployment.degraded_serves,
                deployment.breaker.trips,
            )],
            note="every query answered; failures absorbed by the ladder",
        )
    )
    print(render_stats(scenario.injector.stats(), title="fault injection"))

    transitions = deployment.telemetry.events("breaker_transition")
    if transitions:
        print(
            render_table(
                "breaker transitions",
                ["breaker", "from", "to", "reason"],
                [
                    (e["breaker"], e["from_state"], e["to_state"], e["reason"])
                    for e in transitions
                ],
            )
        )

    # Same seed, same chaos, byte for byte.
    scenario2, _ = run_once(seed=11)
    a = deployment.telemetry.to_json()
    b = scenario2.deployment.telemetry.to_json()
    print(
        "\ndeterminism: two same-seed runs produced "
        + ("IDENTICAL" if a == b else "DIVERGENT")
        + f" telemetry exports ({len(a)} bytes)"
    )


if __name__ == "__main__":
    main()
