"""Compare two ``perf/run.py`` result files against the benchmark's bounds.

``python3 perf/compare.py A.json B.json`` prints, per workload x end-to-end
metric, both values, the relative difference of B against A (positive =
worse), the bound from ``BENCHMARK.json`` and a verdict:

- ``within``      B is no worse than A by more than the bound;
- ``outside``     B is worse than A by more than the bound;
- ``unresolved``  the two runs are too noisy to tell.  Round ``r`` of A and
  round ``r`` of B served identical inputs (same seed, same seconds), so
  the quartile distance of their per-round relative differences is the
  run-to-run spread; when it is wider than the bound the difference cannot
  be told from noise -- unless every round of B reads better than its twin
  in A, which is ``within``.

Exit code 1 if any row is ``outside``, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(a_rounds: list[float], b_rounds: list[float]) -> float:
    """Quartile distance of the paired per-round relative differences."""
    diffs = [(b - a) / abs(a) for a, b in zip(a_rounds, b_rounds) if a]
    if len(diffs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(diffs, n=4)
    return q3 - q1


def verdict(a: float, b: float, a_rounds, b_rounds, better: str, bound: float):
    """``(worse_by, verdict)``; ``worse_by`` is relative to A, positive = worse."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b - a) / abs(a) if a else 0.0
    if spread(a_rounds, b_rounds) > bound:
        all_better = all(sign * (y - x) < 0 for x, y in zip(a_rounds, b_rounds))
        return worse_by, "within" if all_better else "unresolved"
    return worse_by, "outside" if worse_by > bound else "within"


def compare(a: dict, b: dict, spec: dict) -> list[tuple]:
    rows = []
    for workload in spec["workloads"]:
        name = workload["name"]
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if not wa or not wb or "end_to_end" not in wa or "end_to_end" not in wb:
            rows.append((name, "-", None, None, None, None, "unresolved"))
            continue
        for metric in spec["end_to_end"]:
            key = metric["name"]
            worse_by, word = verdict(
                wa["end_to_end"][key],
                wb["end_to_end"][key],
                wa["untraced"]["per_round"].get(key, []),
                wb["untraced"]["per_round"].get(key, []),
                metric["better"],
                metric["bound"],
            )
            rows.append(
                (name, key, wa["end_to_end"][key], wb["end_to_end"][key], worse_by, metric["bound"], word)
            )
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    if (a["seed"], a["seconds"]) != (b["seed"], b["seconds"]):
        sys.exit("compare: the two results must come from the same --seed and --seconds")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(a, b, spec)
    print(f"{'workload':<20} {'metric':<14} {'A':>12} {'B':>12} {'worse by':>9} {'bound':>6}  verdict")
    for name, key, va, vb, worse_by, bound, word in rows:
        if va is None:
            print(f"{name:<20} {key:<14} {'missing in A or B':>43}  {word}")
        else:
            print(f"{name:<20} {key:<14} {va:>12.6g} {vb:>12.6g} {worse_by:>+9.1%} {bound:>6.0%}  {word}")
    return 1 if any(row[-1] == "outside" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
