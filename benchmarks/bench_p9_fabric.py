"""P9: the horizontally sharded, multi-tenant serving fabric.

Four properties are measured and gated:

1. **Scale**: the synthetic fabric serves >= 10^5 virtual queries across
   >= 16 shards in one run, with every request admitted (all-interactive
   tenants, admission control off) -- this is the traffic volume the
   remaining gates are judged at.
2. **Horizontal efficiency**: simulated (virtual-time) throughput at 16
   shards must reach >= 0.7x the ideal 16x speedup over the same workload
   on one shard -- routing, quotas and aggregation must not serialize
   the fabric.
3. **Tenant isolation**: an 8x hot batch tenant flooding the fabric
   (total offered load ~2.8x capacity) must not degrade the interactive
   victim tenants' p99 beyond a bounded ratio of the fair-share baseline
   at the *same* absolute victim arrival rate; QoS shedding plus an
   optional per-tenant quota absorb the abuse.
4. **Determinism**: two same-seed runs of the 10^5-query fabric must
   produce byte-identical merged telemetry exports (traces included) and
   identical router assignments.

Gates (10^5 requests x 16 shards): ``python -m pytest`` on this file;
deterministic export: ``python -m benchmarks p9 --export out.json``.
"""

import json

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

#: gates 1 and 4: the scale run's size
SCALE_REQUESTS, SCALE_SHARDS = 100_000, 16
#: gate 2: minimum simulated-throughput efficiency vs the ideal N-shard speedup
_MIN_EFFICIENCY = 0.7
#: gate 3: max victim-tenant p99 inflation under the hot-tenant flood
_MAX_VICTIM_P99_RATIO = 3.0
#: fairness drill geometry (see fairness_pass)
_N_VICTIMS = 3
_HOT_WEIGHT = 8.0
_FAIR_INTERARRIVAL_MS = 0.6


def _open_config() -> RuntimeConfig:
    """Admission control off: every routed request is served."""
    return RuntimeConfig(timeout_ms=None, queue_capacity=None, max_in_flight=None)


def _scale_run(n_shards: int, n_requests: int, seed: int):
    """One saturating all-interactive run of the synthetic fabric."""
    specs = tuple(TenantSpec(f"tenant{i:02d}") for i in range(8))
    scenario = synthetic_fabric(
        n_shards,
        specs,
        seed=seed,
        n_workers=2,
        shard_config=_open_config(),
        fabric_config=FabricConfig(seed=seed, keep_outcomes=False),
    )
    queries = synthetic_queries(240, seed=seed)
    schedule = build_fabric_schedule(
        (queries * (n_requests // len(queries) + 1))[:n_requests],
        specs,
        seed=seed,
        mean_interarrival_ms=0.05,
    )
    report = scenario.fabric.run(schedule)
    return scenario, report


def scaling_pass(seed: int = 0) -> dict:
    """Gates 1+2: 10^5+ requests over 16+ shards at >= 0.7x ideal."""
    out = {"n_requests": SCALE_REQUESTS, "n_shards": SCALE_SHARDS}
    for label, shards in (("single", 1), ("sharded", SCALE_SHARDS)):
        scenario, report = _scale_run(shards, SCALE_REQUESTS, seed)
        out[label] = {
            "shards": shards,
            "served": report.n_served,
            "rejected": dict(sorted(report.rejected.items())),
            "simulated_qps": round(report.simulated_qps, 4),
            "span_ms": round(report.simulated_span_ms, 4),
            "shard_served": list(report.shard_served),
        }
        if label == "sharded":
            out["shard_table"] = render_stats(
                scenario.fabric.shard_stats(),
                title=f"P9: {shards}-shard fabric, {SCALE_REQUESTS:,} requests",
            )
    out["efficiency"] = round(
        out["sharded"]["simulated_qps"]
        / (SCALE_SHARDS * out["single"]["simulated_qps"]),
        4,
    )
    return out


def _fairness_run(specs, n_requests, interarrival_ms, seed, n_shards):
    scenario = synthetic_fabric(
        n_shards,
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
    queries = synthetic_queries(240, seed=seed)
    schedule = build_fabric_schedule(
        (queries * (n_requests // len(queries) + 1))[:n_requests],
        specs,
        seed=seed,
        mean_interarrival_ms=interarrival_ms,
    )
    report = scenario.fabric.run(schedule)
    victims = sorted(t for t in report.tenant_latency if t.startswith("victim"))
    return {
        "served": report.n_served,
        "rejected": dict(sorted(report.rejected.items())),
        "victim_p99_ms": round(
            max(report.tenant_latency[t]["p99"] for t in victims), 4
        ),
        "tenants": {
            t: {
                "count": int(tl["count"]),
                "p50_ms": round(tl["p50"], 4),
                "p99_ms": round(tl["p99"], 4),
            }
            for t, tl in sorted(report.tenant_latency.items())
        },
    }


def fairness_pass(seed: int = 0) -> dict:
    """Gate 3: victim p99 under the hot-tenant flood stays bounded.

    Three arms at the same absolute victim arrival rate: ``fair`` (every
    tenant weight 1), ``skew`` (one batch tenant at 8x weight -- the
    flood, absorbed by QoS shedding) and ``skew_quota`` (same flood with
    a per-tenant token-bucket quota on the hot tenant as well).
    """
    n, shards = 24_000, 8
    fair_specs = hot_tenant_specs(n_victims=_N_VICTIMS, hot_weight=1.0)
    skew_specs = hot_tenant_specs(n_victims=_N_VICTIMS, hot_weight=_HOT_WEIGHT)
    quota_specs = hot_tenant_specs(
        n_victims=_N_VICTIMS, hot_weight=_HOT_WEIGHT, hot_rate_per_s=500.0
    )
    # keep the *victims'* absolute arrival rate identical across arms:
    # they are 3/4 of the fair mix but only 3/11 of the skewed mix.
    fair_w = _N_VICTIMS + 1.0
    skew_w = _N_VICTIMS + _HOT_WEIGHT
    skew_interarrival = _FAIR_INTERARRIVAL_MS * fair_w / skew_w
    out = {
        "fair": _fairness_run(fair_specs, n, _FAIR_INTERARRIVAL_MS, seed, shards),
        "skew": _fairness_run(skew_specs, n, skew_interarrival, seed, shards),
        "skew_quota": _fairness_run(
            quota_specs, n, skew_interarrival, seed, shards
        ),
    }
    for arm in ("skew", "skew_quota"):
        out[arm]["victim_p99_ratio"] = round(
            out[arm]["victim_p99_ms"] / out["fair"]["victim_p99_ms"], 4
        )
    return out


def determinism_pass(seed: int = 0) -> dict:
    """Gate 4: two fresh same-seed fabrics export identical bytes."""
    exports, assignments = [], []
    for _ in range(2):
        scenario, _report = _scale_run(SCALE_SHARDS, SCALE_REQUESTS, seed)
        exports.append(scenario.fabric.export_json(include_traces=True))
        assignments.append(list(scenario.fabric.router.assignments))
    return {
        "byte_identical": exports[0] == exports[1],
        "assignments_identical": assignments[0] == assignments[1],
        "export_bytes": len(exports[0]),
        "telemetry": json.loads(exports[0]),
    }


def export(seed: int = 0) -> str:
    """The full deterministic report: all four gates, one JSON blob."""
    scaling = scaling_pass(seed=seed)
    scaling = {k: v for k, v in scaling.items() if k != "shard_table"}
    payload = {
        "seed": seed,
        "scaling": scaling,
        "fairness": fairness_pass(seed=seed),
        "determinism": determinism_pass(seed=seed),
    }
    return json.dumps(payload, sort_keys=True, indent=1)


def test_p9_scale_and_horizontal_efficiency():
    out = scaling_pass(seed=0)
    print(out["shard_table"])
    print(
        render_table(
            "P9: horizontal scaling",
            ["arm", "shards", "served", "simulated_qps", "efficiency"],
            [
                (
                    label,
                    out[label]["shards"],
                    out[label]["served"],
                    out[label]["simulated_qps"],
                    out["efficiency"] if label == "sharded" else 1.0,
                )
                for label in ("single", "sharded")
            ],
            note="efficiency = sharded qps / (n_shards x single-shard qps)",
        )
    )
    assert out["n_requests"] >= 100_000
    assert out["n_shards"] >= 16
    for label in ("single", "sharded"):
        assert out[label]["served"] == out["n_requests"], (
            f"{label} dropped requests: {out[label]['rejected']}"
        )
    assert min(out["sharded"]["shard_served"]) > 0, "a shard served nothing"
    assert out["efficiency"] >= _MIN_EFFICIENCY, (
        f"16-shard efficiency {out['efficiency']} below {_MIN_EFFICIENCY}"
    )


def test_p9_hot_tenant_isolation():
    out = fairness_pass(seed=0)
    rows = []
    for arm in ("fair", "skew", "skew_quota"):
        r = out[arm]
        rows.append(
            (
                arm,
                r["served"],
                sum(r["rejected"].values()),
                r["tenants"]["hot"]["p99_ms"],
                r["victim_p99_ms"],
                r.get("victim_p99_ratio", 1.0),
            )
        )
    print(
        render_table(
            "P9: hot-tenant drill",
            ["arm", "served", "shed", "hot_p99", "victim_p99", "ratio"],
            rows,
            note="same absolute victim arrival rate in every arm",
        )
    )
    # the flood really floods: most of the hot tenant's traffic is shed
    assert out["skew"]["rejected"].get("qos_shed", 0) > 0
    assert out["skew_quota"]["rejected"].get("quota", 0) > 0
    # and the victims barely notice
    for arm in ("skew", "skew_quota"):
        assert out[arm]["victim_p99_ratio"] <= _MAX_VICTIM_P99_RATIO, (
            f"{arm} victim p99 ratio {out[arm]['victim_p99_ratio']} "
            f"exceeds {_MAX_VICTIM_P99_RATIO}"
        )


def test_p9_determinism_byte_identical_exports():
    out = determinism_pass(seed=3)
    assert out["byte_identical"], "same-seed fabric exports diverged"
    assert out["assignments_identical"], "same-seed router assignments diverged"
