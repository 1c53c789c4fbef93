"""Continuous learning: drift the data, watch the model retrain itself.

Assembles the closed lifecycle loop -- a GBDT-steered optimizer serving
LIVE, an experience store accumulating execution feedback, drift and
q-error triggers watching the stream -- then mutates the database halfway
through the workload.  The stale model's q-error degrades, the scheduler
clones the champion, a Warper adapts the clone on drift-targeted labelled
queries, the challenger passes the champion-vs-challenger eval gate,
enters deployment at SHADOW, and auto-promotes back to LIVE.  A frozen
baseline running the identical stream shows what that machinery bought.

Run:  python examples/continuous_learning.py
"""

from repro.bench import render_stats, render_table
from repro.lifecycle import drift_recovery_scenario, lifecycle_stats


def run_arm(closed_loop: bool):
    scenario = drift_recovery_scenario(
        scale=0.2,
        seed=0,
        n_queries=160,
        n_train=80,
        n_holdout=24,
        drift_check_every=15,
        cooldown_queries=30,
        closed_loop=closed_loop,
    )
    scenario.run()
    return scenario


def main() -> None:
    closed = run_arm(closed_loop=True)
    frozen = run_arm(closed_loop=False)

    print(
        render_table(
            "continuous learning: closed loop vs frozen model",
            ["arm", "holdout_qerror_p90", "retrains", "deploys", "versions"],
            [
                (
                    "closed_loop",
                    round(closed.holdout_qerror(), 2),
                    closed.scheduler.stats()["retrains"],
                    closed.scheduler.stats()["deploys"],
                    len(closed.registry),
                ),
                (
                    "frozen",
                    round(frozen.holdout_qerror(), 2),
                    0,
                    0,
                    len(frozen.registry),
                ),
            ],
            note=f"database drifted at request {closed.drift_at} of "
            f"{closed.n_requests}",
        )
    )
    print(render_stats(lifecycle_stats(closed), title="model lifecycle"))

    # The registry keeps the whole story: who was trained from whom, why,
    # on which data snapshot, and how deployment went.
    print("\n=== version lineage ===")
    for v in closed.registry.versions():
        stages = " -> ".join(
            s["stage"] for s in closed.registry.stage_history(v.version_id)
        )
        champion = "  <- champion" if v.version_id == closed.registry.champion_id else ""
        print(f"{v.version_id}  trigger={v.trigger}")
        print(f"  parent={v.parent or '-'}  snapshot={v.snapshot_id or '-'}  "
              f"stages={stages or '-'}{champion}")
        report = closed.registry.gate_report(v.version_id)
        if report:
            print(
                f"  gate: passed={report['passed']} "
                f"champion_qerror={report['champion'].get('qerror_q')} "
                f"challenger_qerror={report['challenger'].get('qerror_q')}"
            )

    # Immutability: serving and retraining never mutated a frozen version.
    ok = all(
        closed.registry.verify(v.version_id) for v in closed.registry.versions()
    )
    print(f"\nall registered versions verified immutable: {ok}")


if __name__ == "__main__":
    main()
