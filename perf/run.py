"""Wall-clock serving benchmark runner.

Two ways in:

``python3 perf/run.py --workload W --seed S --seconds N --trace 0|1``
    one workload in this process -- the form ``BENCHMARK.json`` names.
    ``--trace 0`` measures the end-to-end metrics with nothing installed
    but the pass-through shim on ``backend.serve``; ``--trace 1`` runs
    every round twice on identical inputs, untraced then traced, fails if
    the two disagree on any decision, and reports the per-layer metrics.
    The last stdout line is one JSON object: ``correct``, ``attempted``,
    ``failed``, ``metrics``.

``python3 perf/run.py --seed S``
    every workload, each pass in its own fresh subprocess, one after
    another; prints every metric and writes ``perf/out/result_seed<S>.json``
    for ``perf/compare.py``.

A run is ``max(3, round(seconds / round_s))`` rounds of the workload
(``round_s`` = one round's seconds on the reference box), so the same
``(seed, seconds)`` always generates the same inputs.  Every wall-clock
metric is computed per round, divided by the round's speed factor
(``calib.py``: how much slower than its quiet self the box was during that
round) and reported as the median over the rounds.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# One BLAS thread: the process is pinned to one CPU (below), where a second
# BLAS worker only adds hand-offs.  Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
OUT = PERF / "out"
CHECK_EVERY = 50  # every 50th served answer is re-counted by the oracle
CALIB_SETUP_SAMPLES = 3  # kernel timings on each side of a round's set-up
OVERRUN = 1.3  # past seconds x this, a run stops after the round in progress


def _load_stack() -> None:
    """Make the checkout's own ``src/`` importable -- never an installed copy."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perf: no src/repro under {ROOT}; run from a full checkout")
    for path in (str(ROOT / "src"), str(PERF)):
        if path not in sys.path:
            sys.path.insert(0, path)


def pin_to_one_cpu() -> None:
    """Keep every thread of this process on one CPU.

    The single-writer core never runs two threads at once, so a second CPU
    buys nothing; but each hand-off between session threads on different
    vCPUs is a cross-CPU wake-up, which on this VM costs anything from 5 to
    250 us depending on what the host is doing -- measured, it moved
    ``serve_qps`` of the threaded workloads by 2x between minutes.  On one
    CPU a hand-off is a plain context switch.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile: the value with ``pct`` % of samples at or below it."""
    rank = max(math.ceil(len(sorted_values) * pct / 100.0), 1)
    return sorted_values[rank - 1]


# -- one round ------------------------------------------------------------------------


def check_answers(round_, report, every: int) -> tuple[int, int]:
    """``(checked, wrong)``: every ``every``-th served answer against the
    reference counter, on the data in its final state."""
    from repro.oracle import reference_count
    from repro.oracle.reference import ReferenceTooLarge

    if round_.db is None:
        return 0, 0
    served = sorted(
        (o for o in report.outcomes if hasattr(o, "cardinality")),
        key=lambda o: o.request.global_seq,
    )
    checked = wrong = 0
    for outcome in served[every - 1 :: every]:
        if outcome.request.global_seq < round_.check_from:
            continue
        try:
            truth = reference_count(round_.db, outcome.request.query)
        except ReferenceTooLarge:
            continue
        checked += 1
        wrong += int(truth != outcome.cardinality)
    return checked, wrong


def measure_round(workload, seed: int, *, smoke: bool = False, recorder=None, mutate=None) -> dict:
    """Build one round, time its one serving call, verify its outputs.

    ``recorder`` (traced pass) is installed from before set-up until the
    serving call returns; a traced round does not time the kernel inside
    the serving call (the timings would land in the runtime's self time), so
    its seconds are raw.  ``mutate`` lets the self-test corrupt a built
    round before it is measured.
    """
    from calib import Calibrator

    gc.collect()
    gaps: list[float] = []
    exec_ms = [0.0]
    clock = [0.0]
    setup_calib, calib = Calibrator(), Calibrator()
    if recorder is not None:
        recorder.gaps = gaps
        recorder.install()
    try:
        for _ in range(CALIB_SETUP_SAMPLES):
            setup_calib.sample()
        t_setup = perf_counter()
        round_ = workload.build(seed, smoke)
        setup_s = perf_counter() - t_setup
        for _ in range(CALIB_SETUP_SAMPLES):
            setup_calib.sample()
        if mutate is not None:
            mutate(round_)
        if recorder is not None:
            round_.instrument(recorder.wrap)

        def shim_for(inner):
            if recorder is not None:
                inner = recorder.wrap(inner, "backend.serve")

            def serve(query):
                decision = inner(query)
                now = perf_counter()
                gaps.append(now - clock[0])
                # the kernel runs between two gaps: in neither
                clock[0] = calib.sample() if now >= calib.due else now
                exec_ms[0] += decision.latency_ms
                return decision

            return serve

        for backend in round_.backends:
            backend.serve = shim_for(backend.serve)
        if recorder is not None:
            calib.due = math.inf
        t_run = clock[0] = perf_counter()
        report = round_.run()
        t_end = perf_counter()
    finally:
        if recorder is not None:
            recorder.uninstall()
    serve_s = t_end - t_run - calib.spent_s
    if not calib.samples:  # traced, or nothing was served
        calib.sample()
    n_requests = len(round_.queries)
    rejected = sum(report.rejected.values())
    checked, wrong = check_answers(round_, report, CHECK_EVERY)
    # conservation: every request was served or rejected, and the shim saw every serve
    sound = (
        wrong == 0
        and report.n_served + rejected == n_requests == report.n_requests
        and len(gaps) == report.n_served
    )
    gaps.sort()
    return {
        "setup_s": setup_s,
        "setup_speed": setup_calib.speed(),
        "serve_s": serve_s,
        "speed": calib.speed(),
        "n_requests": n_requests,
        "p50_ms": percentile(gaps, 50) * 1e3 if gaps else None,
        "tail_ms": percentile(gaps, workload.tail_pct) * 1e3 if gaps else None,
        "window": (t_run, t_end),
        "round": round_,
        "served": report.n_served,
        "rejected": rejected,
        "checked": checked,
        "failed": rejected + wrong,
        "sound": sound,
        "exec_ms": exec_ms[0],
        "digest": round_.digest(),
        "report": report,
    }


# -- per-layer metrics from one traced round -------------------------------------------

#: metric -> (span, statistic, window); ``_s`` is self seconds unless marked inclusive
SPAN_METRICS = {
    "optimizer.plan_calls": ("optimizer.plan", "calls", "run"),
    "optimizer.plan_s": ("optimizer.plan", "self_s", "run"),
    "optimizer.cardinalities_s": ("optimizer.cardinalities", "self_s", "run"),
    "optimizer.estimate_s": ("optimizer.estimate", "self_s", "run"),
    "optimizer.plancache_s": ("optimizer.plancache", "self_s", "run"),
    "costmodel.featurize_calls": ("costmodel.featurize", "calls", "run"),
    "costmodel.featurize_s": ("costmodel.featurize", "self_s", "run"),
    "ml.predict_calls": ("ml.predict", "calls", "run"),
    "ml.predict_s": ("ml.predict", "self_s", "run"),
    "ml.fit_calls": ("ml.fit", "calls", "run"),
    "ml.fit_s": ("ml.fit", "self_s", "run"),
    "ml.fit_max_ms": ("ml.fit", "max_ms", "run"),
    "e2e.choose_plan_s": ("e2e.choose_plan", "self_s", "run"),
    "e2e.feedback_s": ("e2e.feedback", "self_s", "run"),
    "e2e.retrain_calls": ("e2e.retrain", "calls", "run"),
    "e2e.retrain_s": ("e2e.retrain", "incl_s", "run"),  # inclusive: the in-band stall
    "e2e.retrain_max_ms": ("e2e.retrain", "max_ms", "run"),
    "engine.execute_calls": ("engine.execute", "calls", "run"),
    "engine.execute_s": ("engine.execute", "self_s", "run"),
    "engine.cardinality_calls": ("engine.cardinality", "calls", "run"),
    "engine.cardinality_s": ("engine.cardinality", "self_s", "run"),
    "pilotscope.execute_s": ("pilotscope.execute", "self_s", "run"),
    "python.gc_s": ("python.gc", "self_s", "run"),
    "python.gc_max_ms": ("python.gc", "max_ms", "run"),
    "backend.serve_s": ("backend.serve", "self_s", "run"),
    "serve.deployment_s": ("serve.deployment", "self_s", "run"),
    "serve.telemetry_s": ("serve.telemetry", "self_s", "run"),
    "serve.runtime_s": ("serve.runtime", "self_s", "run"),
    "serve.export_s": ("serve.export", "self_s", "run"),
    "fabric.loop_s": ("fabric.loop", "self_s", "run"),
    "fabric.admit_s": ("fabric.admit", "self_s", "run"),
    "fabric.route_s": ("fabric.route", "self_s", "run"),
    "fabric.submit_s": ("fabric.submit", "self_s", "run"),
    "fabric.merge_s": ("fabric.merge", "self_s", "run"),
    "cardest.estimate_calls": ("cardest.estimate", "calls", "run"),
    "cardest.estimate_s": ("cardest.estimate", "self_s", "run"),
    "cardest.fit_s": ("cardest.fit", "self_s", "setup"),  # the initial fit, inside setup_s
    "cardest.refit_s": ("cardest.fit", "self_s", "run"),
    "cardest.adapt_s": ("cardest.adapt", "incl_s", "run"),  # inclusive
    "cardest.drift_check_s": ("cardest.drift_check", "self_s", "run"),
    "lifecycle.experience_s": ("lifecycle.experience", "self_s", "run"),
    "lifecycle.step_s": ("lifecycle.step", "self_s", "run"),
    "lifecycle.retrain_calls": ("lifecycle.retrain", "calls", "run"),
    "lifecycle.retrain_s": ("lifecycle.retrain", "incl_s", "run"),  # inclusive
    "lifecycle.retrain_max_ms": ("lifecycle.retrain", "max_ms", "run"),
    "lifecycle.gate_s": ("lifecycle.gate", "incl_s", "run"),  # inclusive
    "lifecycle.registry_s": ("lifecycle.registry", "self_s", "run"),
    "storage.build_s": ("storage.build", "incl_s", "setup"),
    "storage.drift_s": ("storage.drift", "incl_s", "run"),  # inclusive
}


def _hit_ratio(stats) -> float:
    if not stats:
        return 0.0
    total = stats["hits"] + stats["misses"]
    return stats["hits"] / total if total else 0.0


def parse_us(queries, limit: int = 200) -> float:
    """Mean microseconds of ``parse_query`` over the workload's SQL texts,
    timed standalone (the serve path takes ``Query`` objects today)."""
    from repro.sql import parse_query

    texts = list(dict.fromkeys(q.to_sql() for q in queries[: 20 * limit]))[:limit]
    start = perf_counter()
    for text in texts:
        parse_query(text)
    return (perf_counter() - start) / len(texts) * 1e6


def layer_metrics(recorder, traced: dict) -> dict:
    """Every per-layer metric of one traced round, bar the tracing overhead."""
    from spans import PROBES, layer_totals, probe_cost_s

    t_run, t_end = traced["window"]
    rows = recorder.rows()
    cost = probe_cost_s()
    windows = {
        "setup": layer_totals(rows, until=t_run, probe_cost_s=cost),
        "run": layer_totals(rows, since=t_run, probe_cost_s=cost),
    }
    missing_spans = {p.span for p in PROBES if p.target in recorder.missing}
    zero = {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "max_ms": 0.0}
    out: dict = {}
    for metric, (span, stat, window) in SPAN_METRICS.items():
        if span in missing_spans and span not in windows[window]:
            out[metric] = None
        else:
            out[metric] = windows[window].get(span, zero)[stat]
    run = windows["run"]
    n_requests = traced["n_requests"]
    wall = traced["serve_s"]
    counts = traced["round"].counts()
    report = traced["report"]
    plans = run.get("optimizer.plan", zero)["calls"]
    # candidates(): distinct plans kept per sweep vs arm plannings spent on them
    sweeps = {i for i, s in enumerate(rows) if s[0] == "e2e.choose_plan" and s[6] and s[1] >= t_run}
    kept = sum(rows[i][6] for i in sweeps)
    arm_plans = sum(1 for s in rows if s[0] == "optimizer.plan" and s[3] in sweeps)
    backend_incl = run.get("backend.serve", zero)["incl_s"]
    shard_served = getattr(report, "shard_served", None)
    out.update(
        {
            "sql.parse_us": parse_us(traced["round"].queries),
            "optimizer.plans_per_request": plans / n_requests,
            "optimizer.cardcache_hit_ratio": _hit_ratio(counts.get("cardcache")),
            "optimizer.plancache_hit_ratio": _hit_ratio(counts.get("plancache")),
            "optimizer.plancache_evictions": counts.get("plancache", {}).get("evictions", 0),
            "e2e.candidates_per_request": kept / n_requests,
            "e2e.candidate_yield": kept / arm_plans if arm_plans else 0.0,
            "engine.memo_hit_ratio": _hit_ratio(counts.get("memo")),
            "serve.runtime_share": 1.0 - backend_incl / wall,
            "serve.rejected": traced["rejected"],
            "fabric.reroutes": counts.get("router", {}).get("reroutes", 0),
            "fabric.shard_imbalance": (
                max(shard_served) / statistics.fmean(shard_served) if shard_served else 0.0
            ),
            "lifecycle.deploys": counts.get("scheduler", {}).get("deploys", 0),
            "lifecycle.drift_detections": counts.get("scheduler", {}).get("drift_detections", 0),
            "trace.coverage_share": sum(row["self_s"] for row in run.values()) / wall,
        }
    )
    return out


# -- one workload -----------------------------------------------------------------------


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """All rounds of one workload in this process; returns the detail record."""
    from spans import Recorder
    from workloads import WORKLOADS

    give_up = perf_counter() + OVERRUN * seconds
    workload = WORKLOADS[name]
    n_rounds = 2 if smoke else max(3, round(seconds / workload.round_s))
    if trace:  # every traced round is paired with an untraced twin
        n_rounds = max(2, n_rounds // 2)
    measure_round(workload, seed, smoke=True)  # warm-up: lazy imports, numpy set-up
    rounds, layers, mismatches = [], [], []
    missing: list[str] = []
    for r in range(n_rounds):
        # a box several times slower than the reference must still end in time
        if len(rounds) >= 3 and perf_counter() > give_up:
            print(f"perf: {name} stopped after {r} of {n_rounds} rounds (over time)", file=sys.stderr)
            break
        sub_seed = seed * 100 + r
        plain = measure_round(workload, sub_seed, smoke=smoke)
        rounds.append(plain)
        if trace:
            recorder = Recorder(period=workload.period)
            traced = measure_round(workload, sub_seed, smoke=smoke, recorder=recorder)
            rounds.append(traced)
            missing = recorder.missing
            # tracing must not perturb decisions
            for key in ("digest", "served", "rejected", "exec_ms"):
                if plain[key] != traced[key]:
                    mismatches.append(
                        f"round {r}: {key} untraced={plain[key]!r} traced={traced[key]!r}"
                    )
            layers.append(layer_metrics(recorder, traced))
            if r == 0:
                OUT.mkdir(exist_ok=True)
                t_run, t_end = traced["window"]
                recorder.dump(
                    OUT / f"trace_{name}.json",
                    workload=name,
                    seed=sub_seed,
                    period=workload.period,
                    run_start_s=t_run,
                    run_end_s=t_end,
                )
        for done in rounds[-2:]:  # a finished round keeps its numbers, not its stack
            done.pop("round", None)
            done.pop("report", None)
    for line in mismatches:
        print(f"perf: traced/untraced mismatch, {line}", file=sys.stderr)

    detail: dict = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "rounds": len(rounds),
        "attempted": sum(r["n_requests"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "rejected": sum(r["rejected"] for r in rounds),
        "answers_checked": sum(r["checked"] for r in rounds),
        "correct": all(r["sound"] for r in rounds) and not mismatches,
        "probes_missing": missing,
        "digests": [r["digest"] for r in rounds],
    }
    detail["failed_share"] = detail["failed"] / detail["attempted"]
    if trace:
        detail["metrics"] = {m: _median([layer[m] for layer in layers]) for m in layers[0]}
        # each traced round against the untraced twin that ran just before it, in raw
        # seconds: the twins' speed factors are not comparable (a kernel timed inside
        # the serving loop finds its cache lines evicted, one timed around it does not)
        detail["metrics"]["trace.overhead_share"] = statistics.median(
            traced["serve_s"] / plain["serve_s"] - 1.0
            for plain, traced in zip(rounds[0::2], rounds[1::2])
        )
        return detail
    # wall clock at reference speed: seconds / speed factor (calib.py)
    per_round = {
        "setup_s": [r["setup_s"] / r["setup_speed"] for r in rounds],
        "serve_qps": [r["served"] / r["serve_s"] * r["speed"] for r in rounds],
        "serve_p50_ms": [r["p50_ms"] / r["speed"] for r in rounds],
        "serve_tail_ms": [r["tail_ms"] / r["speed"] for r in rounds],
        "exec_ms_mean": [r["exec_ms"] / r["served"] for r in rounds],
    }
    detail["tail"] = {"percentile": workload.tail_pct, "samples_per_round": rounds[0]["served"]}
    detail["per_round"] = per_round
    detail["speed"] = [r["speed"] for r in rounds]
    detail["raw"] = {
        "setup_s": [r["setup_s"] for r in rounds],
        "serve_s": [r["serve_s"] for r in rounds],
    }
    detail["metrics"] = {key: statistics.median(values) for key, values in per_round.items()}
    # virtual time is exact: pool it over every request instead
    detail["metrics"]["exec_ms_mean"] = sum(r["exec_ms"] for r in rounds) / sum(r["served"] for r in rounds)
    detail["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return detail


def emit(detail: dict, spec: dict) -> dict:
    """Print every metric by name with its unit, save the detail record and
    return the contract's result object."""
    listed = spec["per_layer" if detail["trace"] else "end_to_end"]
    metrics = {}
    for entry in listed:
        name, unit = entry["name"], entry["unit"]
        if name not in detail["metrics"]:
            sys.exit(f"perf: BENCHMARK.json lists {name!r} but the runner does not measure it")
        value = detail["metrics"][name]
        print(f"{detail['workload']:<20} {name:<32} {'null' if value is None else f'{value:.6g}':>14} {unit}")
        # a probe a refactor removed reads null in the detail file, 0 here
        metrics[name] = {"value": 0.0 if value is None else value, "unit": unit}
    tail = detail.get("tail")
    if tail:
        speeds = detail["speed"]
        print(
            f"{detail['workload']:<20} serve_tail_ms is p{tail['percentile']} of a round's "
            f"{tail['samples_per_round']} gaps, median of {detail['rounds']} rounds; wall clock at "
            f"reference speed, box was {min(speeds):.2f}-{max(speeds):.2f}x slower"
        )
    print(
        f"{detail['workload']:<20} attempted={detail['attempted']} failed={detail['failed']} "
        f"failed_share={detail['failed_share']:.6g} answers_checked={detail['answers_checked']} "
        f"rounds={detail['rounds']} probes_missing={detail['probes_missing']}"
    )
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{detail['workload']}.trace{detail['trace']}.seed{detail['seed']}.json"
    path.write_text(json.dumps(detail, indent=1, sort_keys=True))
    return {
        "correct": detail["correct"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    }


# -- every workload, fresh subprocesses ----------------------------------------------


def fingerprint() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
    }


def run_all(spec: dict, seed: int, seconds: float, smoke: bool) -> int:
    result = {"seed": seed, "seconds": seconds, "fingerprint": fingerprint(), "workloads": {}}
    ok = True
    for entry in spec["workloads"]:
        name = entry["name"]
        merged: dict = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(PERF / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            if smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(f"perf: {name} --trace {trace} exited {proc.returncode}", file=sys.stderr)
                ok = False
                continue
            ok &= json.loads(lines[-1])["correct"]
            detail = json.loads((OUT / f"{name}.trace{trace}.seed{seed}.json").read_text())
            merged["per_layer" if trace else "end_to_end"] = detail.pop("metrics")
            merged["traced" if trace else "untraced"] = detail
        result["workloads"][name] = merged
    path = OUT / f"result_seed{seed}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True))
    print(f"perf: wrote {path.relative_to(ROOT)}" + ("" if ok else " (FAILED checks)"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload in this process (default: all, in subprocesses)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, two rounds (self-test)")
    args = parser.parse_args(argv)
    _load_stack()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload is None:
        return run_all(spec, args.seed, seconds, args.smoke)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"perf: unknown workload {args.workload!r}")
    pin_to_one_cpu()
    detail = run_workload(args.workload, args.seed, seconds, bool(args.trace), args.smoke)
    print(json.dumps(emit(detail, spec)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
