"""P10: cross-schema zero-shot transfer, then the fleet that serves it.

Three properties are measured and gated:

1. **Zero-shot transfer**: a :class:`ZeroShotCostModel` trained on
   executed plans from K *generated* source schemas must predict plan
   latencies on held-out target schemas it never saw -- with a geomean
   q-error at least 2x better than a random predictor drawing
   log-uniformly over the target's observed latency range, and within
   3x of the train-on-target ceiling (the same architecture trained on
   the target's own plans).
2. **Fleet drift recovery**: the lifecycle closed loop, run concurrently
   across >= 8 generated schemas (one tenant per schema pinned to its
   own shard of the P9 fabric), must detect the mid-stream fleet-wide
   drift and recover: retraining fires on nearly every schema, and the
   closed fleet's post-drift holdout q-error geomean beats the frozen
   (no-trigger) control fleet's.
3. **Determinism**: two fresh same-seed fleets export byte-identical
   merged telemetry and identical schema fingerprints.

Gates (8 schemas, 6-source/2-target split): ``python -m pytest`` on this
file; deterministic export: ``python -m benchmarks p10 --export out.json``.
"""

import json

import numpy as np
from scipy.stats import spearmanr

from repro.bench import render_table
from repro.costmodel import PlanFeaturizer, ZeroShotCostModel
from repro.engine import ExecutionSimulator
from repro.lifecycle import transfer_fleet_scenario
from repro.optimizer import HintSet, Optimizer
from repro.sql import WorkloadGenerator
from repro.storage import SchemaGenConfig, schema_family

#: the transfer split: schemas generated, of which the first are sources
N_SCHEMAS, N_SOURCES = 8, 6
#: gates 2 and 3: the fleet's schemas and queries per tenant
FLEET_SCHEMAS, FLEET_QUERIES = 8, 36
#: gate 1a: random-baseline geomean q-error must exceed zero-shot's by this factor
_MIN_RANDOM_ADVANTAGE = 2.0
#: gate 1b: zero-shot geomean q-error within this factor of the ceiling's
_MAX_CEILING_GAP = 3.0
#: the transfer corpus' schema shape
_TRANSFER_CONFIG = SchemaGenConfig(
    n_tables=(4, 7), rows=(200, 1000), attr_cols=(1, 2)
)


def _corpus(db, n_queries: int, seed: int):
    """Executed (plan, latency) pairs for one schema: every query is
    planned under the first four Bao hint arms so latencies spread."""
    opt = Optimizer(db)
    sim = ExecutionSimulator(db)
    feat = PlanFeaturizer(db, opt.estimator)
    gen = WorkloadGenerator(db, seed=seed)
    cap = min(4, gen.max_component_size)
    plans, lats = [], []
    for q in gen.workload(n_queries, 1, cap, require_predicate=True):
        for arm in HintSet.bao_arms()[:4]:
            p = opt.plan(q, hints=arm)
            plans.append(p)
            lats.append(sim.execute(p).latency_ms)
    return feat, plans, np.array(lats)


def _geomean_qerror(preds, actual) -> float:
    preds = np.maximum(np.asarray(preds, dtype=float), 1e-6)
    actual = np.maximum(np.asarray(actual, dtype=float), 1e-6)
    q = np.maximum(preds / actual, actual / preds)
    return float(np.exp(np.mean(np.log(q))))


def _geomean(values) -> float:
    return float(np.exp(np.mean(np.log(np.asarray(list(values), dtype=float)))))


def transfer_pass(seed: int = 0) -> dict:
    """Gate 1: zero-shot q-error on held-out schemas vs random/ceiling.

    Protocol: generate one schema family, split it into source and
    target schemas, train the zero-shot model on every source corpus
    pooled, then score each target's *test half*.  Three predictors per
    target: the zero-shot model (never saw the target), the
    train-on-target **ceiling** (same architecture trained on the
    target's other half), and the **random baseline** (log-uniform draw
    over the test half's observed latency range; the permutation
    baseline -- predicting a random other plan's latency -- is reported
    as an ungated reference).
    """
    dbs = schema_family(N_SCHEMAS, seed=seed, config=_TRANSFER_CONFIG)
    corpora = [_corpus(db, 30, seed=seed + 5) for db in dbs]
    sources = corpora[:N_SOURCES]
    targets = corpora[N_SOURCES:]

    model = ZeroShotCostModel(epochs=80, seed=seed)
    model.fit([(f, list(plans), lats) for f, plans, lats in sources])

    rng = np.random.default_rng((int(seed), 0xBA5E))
    per_target = []
    for ti, (feat, plans, lats) in enumerate(targets):
        n_test = len(plans) // 2
        test_plans, test_lats = plans[:n_test], lats[:n_test]
        zs_preds = [model.predict_latency(pl, feat) for pl in test_plans]
        zs_q = _geomean_qerror(zs_preds, test_lats)
        zs_rho = float(spearmanr(zs_preds, test_lats).statistic)
        lo = np.log(max(float(test_lats.min()), 1e-6))
        hi = np.log(float(test_lats.max()))
        random_q = _geomean_qerror(
            np.exp(rng.uniform(lo, hi, size=n_test)), test_lats
        )
        perm_q = _geomean_qerror(
            test_lats[rng.permutation(n_test)], test_lats
        )
        ceiling = ZeroShotCostModel(epochs=80, seed=seed)
        ceiling.fit([(feat, list(plans[n_test:]), lats[n_test:])])
        ceil_q = _geomean_qerror(
            [ceiling.predict_latency(pl, feat) for pl in test_plans], test_lats
        )
        per_target.append(
            {
                "schema": feat.db.name,
                "n_test_plans": n_test,
                "zeroshot_qerror": round(zs_q, 4),
                "zeroshot_rank_rho": round(zs_rho, 4),
                "random_qerror": round(random_q, 4),
                "permutation_qerror": round(perm_q, 4),
                "ceiling_qerror": round(ceil_q, 4),
            }
        )
    zs = _geomean(t["zeroshot_qerror"] for t in per_target)
    rand = _geomean(t["random_qerror"] for t in per_target)
    ceil = _geomean(t["ceiling_qerror"] for t in per_target)
    return {
        "n_schemas": N_SCHEMAS,
        "n_sources": N_SOURCES,
        "n_targets": len(targets),
        "targets": per_target,
        "zeroshot_geomean": round(zs, 4),
        "zeroshot_rank_rho_mean": round(
            float(np.mean([t["zeroshot_rank_rho"] for t in per_target])), 4
        ),
        "random_geomean": round(rand, 4),
        "ceiling_geomean": round(ceil, 4),
        "random_advantage": round(rand / zs, 4),
        "ceiling_gap": round(zs / ceil, 4),
    }


def _fleet_summary(fleet) -> dict:
    stats = fleet.retrain_stats()
    qerrs = fleet.holdout_qerrors()
    served = sum(r.n_served for r in fleet.reports)
    return {
        "n_schemas": len(fleet.tenants),
        "n_requests": fleet.n_requests,
        "served": served,
        "tenants_retrained": sum(
            1 for v in stats.values() if v["retrains"] > 0
        ),
        "tenants_deployed": sum(1 for v in stats.values() if v["deploys"] > 0),
        "holdout_qerror_geomean": round(_geomean(qerrs.values()), 4),
        "per_tenant": {
            t: {
                "retrains": stats[t]["retrains"],
                "deploys": stats[t]["deploys"],
                "drift_detections": stats[t]["drift_detections"],
                "holdout_qerror": round(qerrs[t], 4),
            }
            for t in sorted(stats)
        },
    }


def fleet_pass(seed: int = 0) -> dict:
    """Gate 2: concurrent drift recovery across the schema fleet.

    Two arms over identical schemas, streams and drift: ``closed`` (the
    full trigger/retrain/gate/deploy loop per schema) and ``frozen`` (no
    triggers -- the model that was live at t=0 stays live)."""
    out = {}
    for label, closed in (("closed", True), ("frozen", False)):
        fleet = transfer_fleet_scenario(
            n_schemas=FLEET_SCHEMAS,
            seed=seed,
            queries_per_tenant=FLEET_QUERIES,
            closed_loop=closed,
        )
        fleet.run()
        out[label] = _fleet_summary(fleet)
    out["qerror_improvement"] = round(
        out["frozen"]["holdout_qerror_geomean"]
        / out["closed"]["holdout_qerror_geomean"],
        4,
    )
    return out


def determinism_pass(seed: int = 0) -> dict:
    """Gate 3: two fresh same-seed fleets export identical bytes."""
    exports, fingerprints = [], []
    for _ in range(2):
        fleet = transfer_fleet_scenario(
            n_schemas=FLEET_SCHEMAS, seed=seed, queries_per_tenant=FLEET_QUERIES
        )
        fleet.run()
        exports.append(fleet.export_json(include_traces=True))
        fingerprints.append(fleet.fingerprints())
    return {
        "byte_identical": exports[0] == exports[1],
        "fingerprints_identical": fingerprints[0] == fingerprints[1],
        "export_bytes": len(exports[0]),
        "fingerprints": fingerprints[0],
        "telemetry": json.loads(exports[0]),
    }


def export(seed: int = 0) -> str:
    """The full deterministic report: all three gates, one JSON blob."""
    payload = {
        "seed": seed,
        "transfer": transfer_pass(seed=seed),
        "fleet": fleet_pass(seed=seed),
        "determinism": determinism_pass(seed=seed),
    }
    return json.dumps(payload, sort_keys=True, indent=1)


def _transfer_table(out: dict, title: str) -> str:
    rows = [
        (
            t["schema"],
            t["zeroshot_qerror"],
            t["random_qerror"],
            t["ceiling_qerror"],
        )
        for t in out["targets"]
    ]
    rows.append(
        (
            "geomean",
            out["zeroshot_geomean"],
            out["random_geomean"],
            out["ceiling_geomean"],
        )
    )
    return render_table(
        title,
        ["target schema", "zeroshot_q", "random_q", "ceiling_q"],
        rows,
        note=(
            f"random_advantage={out['random_advantage']}x "
            f"(gate >= {_MIN_RANDOM_ADVANTAGE}), "
            f"ceiling_gap={out['ceiling_gap']}x (gate <= {_MAX_CEILING_GAP})"
        ),
    )


def _fleet_table(out: dict, title: str) -> str:
    rows = [
        (
            arm,
            out[arm]["served"],
            out[arm]["tenants_retrained"],
            out[arm]["tenants_deployed"],
            out[arm]["holdout_qerror_geomean"],
        )
        for arm in ("closed", "frozen")
    ]
    return render_table(
        title,
        ["arm", "served", "retrained", "deployed", "holdout_qerr_geomean"],
        rows,
        note=f"closed-loop q-error improvement {out['qerror_improvement']}x",
    )


def test_p10_zero_shot_transfer_beats_random_within_ceiling():
    out = transfer_pass(seed=0)
    print(_transfer_table(out, "P10: zero-shot transfer"))
    assert out["n_targets"] >= 2
    assert out["random_advantage"] >= _MIN_RANDOM_ADVANTAGE, (
        f"zero-shot only {out['random_advantage']}x better than random "
        f"(needs >= {_MIN_RANDOM_ADVANTAGE}x)"
    )
    assert out["ceiling_gap"] <= _MAX_CEILING_GAP, (
        f"zero-shot {out['ceiling_gap']}x off the train-on-target ceiling "
        f"(needs <= {_MAX_CEILING_GAP}x)"
    )


def test_p10_fleet_drift_recovery():
    out = fleet_pass(seed=0)
    print(_fleet_table(out, "P10: fleet drift recovery"))
    closed, frozen = out["closed"], out["frozen"]
    assert closed["n_schemas"] >= 8
    assert closed["served"] == closed["n_requests"], "closed fleet dropped requests"
    assert frozen["served"] == frozen["n_requests"], "frozen fleet dropped requests"
    # the loop actually closes on (nearly) every schema ...
    assert closed["tenants_retrained"] >= closed["n_schemas"] - 1, (
        f"only {closed['tenants_retrained']}/{closed['n_schemas']} "
        "schemas retrained after the fleet-wide drift"
    )
    assert frozen["tenants_retrained"] == 0
    # ... and recovery beats the frozen control
    assert (
        closed["holdout_qerror_geomean"] <= frozen["holdout_qerror_geomean"]
    ), (
        f"closed loop ({closed['holdout_qerror_geomean']}) worse than "
        f"frozen control ({frozen['holdout_qerror_geomean']})"
    )


def test_p10_determinism_byte_identical_exports():
    out = determinism_pass(seed=3)
    assert out["byte_identical"], "same-seed fleet exports diverged"
    assert out["fingerprints_identical"], "same-seed schema fingerprints diverged"
