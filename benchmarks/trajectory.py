"""The committed wall-clock trajectory: ``python -m benchmarks.trajectory
[--seed 0] [--seconds 20]`` appends one row per ``BENCHMARK.json`` workload
to ``BENCH_<workload>.json`` at the repo root.

For each workload the benchmark's own ``command`` runs twice, each in a
fresh subprocess: ``--trace 0`` for the end-to-end metrics, ``--trace 1``
for the five layers with the most self seconds.  The row is what the
runner printed as its last-line JSON plus where it was measured (git sha,
seed, seconds, machine).  A ``BENCH_*.json`` file is a JSON list with one
row per line, oldest first; rows marked ``"reconstructed": true`` were
copied from CHANGES.md / ROADMAP.md text, not measured by this script.

Wall-clock numbers from different boxes do not compare: read a row against
the rows with the same ``machine``.  No CI job runs this; a PR that claims
a gain runs it and commits the row (see the verify skill).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOP_LAYERS = 5


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True
    ).stdout.strip()


def _run(command: list[str], workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One pass of the benchmark in a fresh process; its last-line JSON."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"trajectory: {workload} --trace {trace} exited {proc.returncode}")
    return json.loads(lines[-1])


def measure(spec: dict, workload: str, seed: int, seconds: float) -> dict:
    plain = _run(spec["command"], workload, seed, seconds, trace=0)
    traced = _run(spec["command"], workload, seed, seconds, trace=1)
    layers = {n: m["value"] for n, m in traced["metrics"].items() if n.endswith("_s")}
    top = sorted(layers, key=layers.get, reverse=True)[:TOP_LAYERS]
    return {
        "sha": _git("rev-parse", "--short", "HEAD"),
        "dirty": bool(_git("status", "--porcelain")),
        "seed": seed,
        "seconds": seconds,
        "machine": {
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "correct": plain["correct"] and traced["correct"],
        "failed": plain["failed"],
        "metrics": {e["name"]: plain["metrics"][e["name"]]["value"] for e in spec["end_to_end"]},
        "top_layers": {name: layers[name] for name in top},
    }


def append(path: Path, row: dict) -> None:
    rows = json.loads(path.read_text()) if path.exists() else []
    rows.append(row)
    body = ",\n".join(json.dumps(r, sort_keys=True) for r in rows)
    path.write_text(f"[\n{body}\n]\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.trajectory",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    for entry in spec["workloads"]:
        row = measure(spec, entry["name"], args.seed, seconds)
        path = ROOT / f"BENCH_{entry['name']}.json"
        append(path, row)
        print(f"{path.name}: {json.dumps(row['metrics'], sort_keys=True)}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
