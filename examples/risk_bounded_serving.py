"""Pessimistic serving: certified bounds, risk-bounded plans, the guard.

Two demonstrations on one synthetic STATS-style database:

1. **Adversarial drift, optimistic vs pessimistic.** Halfway through a
   served workload, new rows pile every child table's foreign keys onto
   a previously-cold parent key.  The point estimator keeps its stale
   pre-drift statistics and believes the exploding joins are empty; the
   optimistic planner walks into nested-loop plans over huge
   intermediates, while the pessimistic arm (``risk="worst_case"``
   against refreshed bound sketches -- a cheap ANALYZE, no retraining)
   keeps picking hash joins.  Same seed, same workload, same drift:
   only the risk mode differs, and only the tail latency does.

2. **The bound guard under a fault storm.** A :class:`repro.faults.
   BoundGuard` checks every served estimate against its certified upper
   bound.  A fault injector poisons the primary estimator (NaN, Inf,
   garbage magnitudes, crashes); every estimate that crosses its bound
   trips the circuit breaker and serves from the histogram fallback --
   capped at the bound -- with the whole funnel visible in ``bounds.*``
   telemetry.

Run:  python examples/risk_bounded_serving.py
"""

import numpy as np

from repro.bench import render_stats, render_table
from repro.serve import Served, adversarial_drift_scenario, bound_guard_scenario


def drift_comparison(seed: int = 0) -> None:
    rows = []
    for arm, pessimistic in (("optimistic", False), ("pessimistic", True)):
        scenario = adversarial_drift_scenario(pessimistic=pessimistic, seed=seed)
        report = scenario.run()
        lat = np.array(
            [r.latency_ms for r in report.outcomes if isinstance(r, Served)]
        )
        rows.append(
            (
                arm,
                int(lat.size),
                report.n_requests - int(lat.size),
                round(float(np.percentile(lat, 50)), 2),
                round(float(np.percentile(lat, 99)), 2),
                round(float(lat.max()), 2),
            )
        )
    print(
        render_table(
            "adversarial hot-key drift: only the risk mode differs",
            ["arm", "served", "rejected", "p50_ms", "p99_ms", "max_ms"],
            rows,
            note="pessimistic = risk='worst_case' + sketch refresh at the drift",
        )
    )


def guard_drill(seed: int = 0) -> None:
    scenario = bound_guard_scenario(seed=seed)
    scenario.run()
    guard = scenario.bound_guard
    print(
        render_stats(
            guard.stats(),
            title="bound guard under the default fault storm",
            note="every violation is also a bound_violation telemetry event",
        )
    )
    snap = scenario.runtime.telemetry.snapshot()
    events = [e for e in snap["events"] if e.get("kind") == "bound_violation"]
    print(
        f"breaker epoch {guard.breaker.epoch}, "
        f"{len(events)} bound_violation events "
        f"(= {guard.violations} violations recorded by the guard)"
    )


def main() -> None:
    drift_comparison(seed=0)
    guard_drill(seed=0)


if __name__ == "__main__":
    main()
