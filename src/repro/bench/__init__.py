"""Benchmark harness support: report tables, drift generators, suite builders.

The runnable experiments live in ``benchmarks/`` (one per table/figure of
EXPERIMENTS.md); this package provides their shared machinery:

- :mod:`repro.bench.report` -- plain-text table rendering in the shape
  benchmark papers print;
- :mod:`repro.bench.workloads` -- the data-drift generators used by the
  dynamic experiments;
- :mod:`repro.bench.suite` -- estimator/optimizer suite builders so every
  experiment constructs methods consistently.
"""

from repro.bench.report import render_stats, render_table
from repro.bench.workloads import apply_drift
from repro.bench.suite import build_estimator, estimate_workload

__all__ = [
    "render_table",
    "render_stats",
    "apply_drift",
    "build_estimator",
    "estimate_workload",
]
