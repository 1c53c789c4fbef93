"""The sharded, multi-tenant serving fabric: scale-out + a hot-tenant drill.

Two demonstrations, all in virtual time (seconds of wall clock):

1. **Horizontal scale-out.**  The same saturating 40k-request workload
   is served on 1 shard and on 16; deterministic two-choice routing by
   canonical query hash keeps the shards balanced, and simulated
   throughput scales near-linearly (the P9 benchmark gates this at
   >= 0.7x ideal; it measures ~0.93x).

2. **Hot-tenant drill.**  One batch tenant floods the fabric at 8x the
   weight of three interactive victim tenants -- total offered load far
   above capacity.  QoS-aware shedding (batch sheds when its target
   shard's backlog passes a watermark; interactive never fabric-sheds)
   plus an optional per-tenant token-bucket quota absorb the flood: the
   victims' p99 stays within a small multiple of their fair-share
   baseline at the *same* absolute victim arrival rate.

Both runs export one merged telemetry blob; merging is commutative and
two same-seed runs produce byte-identical bytes (the repo's standing
determinism gate, extended to the fabric).

Run:  python examples/sharded_fabric.py
"""

from repro.bench import render_stats, render_table
from repro.serve import RuntimeConfig
from repro.serve.fabric import (
    FabricConfig,
    TenantSpec,
    build_fabric_schedule,
    hot_tenant_specs,
    synthetic_fabric,
    synthetic_queries,
)

N_REQUESTS = 40_000


def _open_config() -> RuntimeConfig:
    return RuntimeConfig(timeout_ms=None, queue_capacity=None, max_in_flight=None)


def _schedule(specs, n, interarrival_ms, seed):
    queries = synthetic_queries(240, seed=seed)
    return build_fabric_schedule(
        (queries * (n // len(queries) + 1))[:n],
        specs,
        seed=seed,
        mean_interarrival_ms=interarrival_ms,
    )


def scale_out(seed: int = 0) -> None:
    specs = tuple(TenantSpec(f"tenant{i:02d}") for i in range(8))
    rows, qps = [], {}
    last = None
    for shards in (1, 16):
        scenario = synthetic_fabric(
            shards,
            specs,
            seed=seed,
            n_workers=2,
            shard_config=_open_config(),
            fabric_config=FabricConfig(seed=seed, keep_outcomes=False),
        )
        report = scenario.fabric.run(
            _schedule(specs, N_REQUESTS, 0.05, seed)
        )
        qps[shards] = report.simulated_qps
        rows.append((shards, report.n_served, round(report.simulated_qps, 1)))
        last = scenario
    print(
        render_table(
            "horizontal scale-out: same workload, 1 vs 16 shards",
            ["shards", "served", "simulated_qps"],
            rows,
            note=f"efficiency = {qps[16] / (16 * qps[1]):.3f} of ideal 16x",
        )
    )
    print(
        render_stats(
            last.fabric.shard_stats(), title="16-shard balance (two-choice)"
        )
    )


def hot_tenant_drill(seed: int = 0) -> None:
    fair = hot_tenant_specs(n_victims=3, hot_weight=1.0)
    flood = hot_tenant_specs(n_victims=3, hot_weight=8.0)
    quota = hot_tenant_specs(n_victims=3, hot_weight=8.0, hot_rate_per_s=500.0)
    rows = []
    baseline = None
    for label, specs, interarrival in (
        ("fair share", fair, 0.6),
        ("8x flood", flood, 0.6 * 4.0 / 11.0),
        ("8x flood + quota", quota, 0.6 * 4.0 / 11.0),
    ):
        scenario = synthetic_fabric(
            8,
            specs,
            seed=seed,
            n_workers=2,
            shard_config=_open_config(),
            fabric_config=FabricConfig(
                seed=seed,
                background_shed_backlog=4,
                batch_shed_backlog=8,
                keep_outcomes=False,
            ),
        )
        report = scenario.fabric.run(
            _schedule(specs, N_REQUESTS // 2, interarrival, seed)
        )
        victim_p99 = max(
            report.tenant_latency[t]["p99"]
            for t in report.tenant_latency
            if t.startswith("victim")
        )
        if baseline is None:
            baseline = victim_p99
        rows.append(
            (
                label,
                report.n_served,
                report.rejected.get("qos_shed", 0),
                report.rejected.get("quota", 0),
                round(victim_p99, 1),
                round(victim_p99 / baseline, 2),
            )
        )
    print(
        render_table(
            "hot-tenant drill: victims' p99 vs their fair-share baseline",
            ["arm", "served", "qos_shed", "quota", "victim_p99", "ratio"],
            rows,
            note="same absolute victim arrival rate in every arm",
        )
    )


def determinism(seed: int = 0) -> None:
    exports = []
    for _ in range(2):
        specs = hot_tenant_specs(n_victims=3, hot_weight=8.0)
        scenario = synthetic_fabric(
            8, specs, seed=seed, fabric_config=FabricConfig(seed=seed)
        )
        scenario.fabric.run(_schedule(specs, 5_000, 0.5, seed))
        exports.append(scenario.fabric.export_json(include_traces=True))
    print(
        f"\nmerged telemetry export: {len(exports[0]):,} bytes, "
        f"byte-identical across two same-seed runs: {exports[0] == exports[1]}"
    )


if __name__ == "__main__":
    scale_out()
    hot_tenant_drill()
    determinism()
