"""P4: the model lifecycle closing the loop -- drift, retrain, recover.

Three lifecycle properties are measured and gated:

1. **Drift recovery**: a GBDT-steered deployment serves a stream whose
   database mutates halfway (:func:`repro.bench.apply_drift`).  The
   closed loop (drift + q-error triggers -> clone -> Warper adaptation ->
   eval gate -> SHADOW deployment -> auto-promotion) must end the run
   with a *materially lower* held-out q-error than the frozen baseline
   running the identical stream with triggers disabled, at no worse p50
   served latency.
2. **Gate safety**: with impossible gate thresholds every challenger must
   be rejected -- zero ``deployment.deploys``, the champion object still
   serving -- while the rejected versions remain in the registry with
   their failing gate reports (lineage keeps the evidence).
3. **Determinism**: two same-seed runs must produce byte-identical
   registry *and* telemetry JSON exports.  Retraining is part of the
   reproducible record.

Gates: ``python -m pytest`` on this file; deterministic export (closed-loop
arm, registry + telemetry): ``python -m benchmarks p4 --export out.json``.
"""

import json

from repro.bench import render_stats, render_table
from repro.lifecycle import drift_recovery_scenario, lifecycle_stats


def _scenario(seed: int = 0, closed_loop: bool = True):
    return drift_recovery_scenario(
        scale=0.2,
        seed=seed,
        n_queries=160,
        n_train=80,
        n_holdout=24,
        closed_loop=closed_loop,
        drift_check_every=15,
        cooldown_queries=30,
    )


def export(seed: int = 0) -> str:
    """The deterministic artifact CI diffs: registry + telemetry, sorted."""
    scenario = _scenario(seed)
    scenario.run()
    return json.dumps(
        {
            "registry": json.loads(scenario.registry.to_json()),
            "telemetry": json.loads(scenario.telemetry.to_json()),
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def _served_p50(scenario) -> float:
    return scenario.telemetry.snapshot()["histograms"]["latency_ms"]["p50"]


def test_p4_drift_recovery_beats_frozen_baseline():
    closed = _scenario(seed=0)
    closed.run()
    frozen = _scenario(seed=0, closed_loop=False)
    frozen.run()
    closed_q = closed.holdout_qerror()
    frozen_q = frozen.holdout_qerror()
    sched = closed.scheduler.stats()
    assert sched["retrains"] >= 1, "no retraining fired after the drift"
    assert sched["deploys"] >= 1, "no gated challenger reached deployment"
    assert closed.registry.champion_id != closed.registry.versions()[0].version_id, (
        "the recovered challenger never became champion"
    )
    # The headline: the closed loop recovers estimation accuracy the
    # frozen baseline permanently lost.
    assert closed_q < frozen_q * 0.75, (
        f"closed loop q-error {closed_q:.1f} did not materially beat "
        f"frozen {frozen_q:.1f}"
    )
    # ... and not by trading away serving latency.
    assert _served_p50(closed) <= _served_p50(frozen) * 1.10
    # Registered versions are immutable: serving never mutated any of them.
    assert all(
        closed.registry.verify(v.version_id) for v in closed.registry.versions()
    )
    print(
        render_table(
            "P4: drift recovery",
            ["arm", "holdout_qerror_p90", "p50_ms", "retrains", "versions"],
            [
                ("closed_loop", round(closed_q, 2), _served_p50(closed),
                 sched["retrains"], len(closed.registry)),
                ("frozen", round(frozen_q, 2), _served_p50(frozen), 0,
                 len(frozen.registry)),
            ],
            note=f"drift at request {closed.drift_at} of {closed.n_requests}",
        )
    )
    print(render_stats(lifecycle_stats(closed), title="model lifecycle"))


def test_p4_gate_blocks_bad_challenger():
    scenario = _scenario(seed=0)
    # Impossible thresholds: nothing may pass the gate.
    scenario.gate.max_p50_ratio = 0.0
    scenario.gate.max_p95_ratio = 0.0
    scenario.gate.max_qerror_ratio = 0.0
    champion_before = scenario.deployment.learned
    version_before = scenario.deployment.model_version
    scenario.run()
    sched = scenario.scheduler.stats()
    assert sched["retrains"] >= 1, "scenario never retrained; gate untested"
    assert sched["deploys"] == 0, "a gate-failing challenger was deployed"
    counters = scenario.telemetry.snapshot()["counters"]
    assert counters.get("deployment.deploys", 0) == 0
    assert counters.get("gate.failed", 0) == sched["retrains"]
    # The champion object is untouched and still the serving model.
    assert scenario.deployment.learned is champion_before
    assert scenario.deployment.model_version == version_before
    # Rejected challengers stay in the registry with failing gate reports.
    rejected = [
        v for v in scenario.registry.versions() if v.trigger != "initial"
    ]
    assert rejected, "rejected challengers missing from the registry"
    for v in rejected:
        report = scenario.registry.gate_report(v.version_id)
        assert report is not None and report["passed"] is False
    print(
        render_table(
            "P4: gate safety",
            ["retrains", "gate_failures", "deploys", "versions"],
            [(sched["retrains"], sched["gate_failures"], sched["deploys"],
              len(scenario.registry))],
            note="impossible gate thresholds: every challenger rejected",
        )
    )


def test_p4_determinism_same_seed_same_exports():
    assert export(seed=3) == export(seed=3), (
        "same-seed lifecycle runs diverged (retraining is not deterministic)"
    )
