"""Registry of the runnable experiments in this directory.

One entry per ``bench_*.py`` module: the E-series reproduces the paper's
tables/figures (see EXPERIMENTS.md), the T-series is the taxonomy sweep,
and the P-series benchmarks this repo's own performance layers (batching /
caching, serving).  Every module has a top-level ``export(seed=0) -> str``
-- the deterministic bytes ``python -m benchmarks <key>`` writes and CI
diffs across two fresh processes -- and ``test_*`` gates for pytest; T1,
E1-E13 and P1 build both from a ``measure(seed)``
(:mod:`benchmarks.contract`).  The registry is plain data and importing
this package imports nothing from ``repro``: it only puts ``src/`` on
``sys.path`` so pytest and the CLI work from a plain checkout; use
:func:`load` to import one benchmark's module lazily.

Every bench has one size: an export is a function of its key and seed
alone.  A bigger run is more seeds (``--seed``), not a bigger size.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


#: registry key -> (module name, one-line description)
BENCHMARKS: dict[str, tuple[str, str]] = {
    "e1": ("bench_e1_single_table", "single-table estimators (Table 1)"),
    "e2": ("bench_e2_dynamic_drift", "estimator accuracy under data drift"),
    "e3": ("bench_e3_design_space", "query-driven design-space sweep"),
    "e4": ("bench_e4_e2e_injection", "cardinality injection end-to-end"),
    "e5": ("bench_e5_cost_models", "learned cost model comparison"),
    "e6": ("bench_e6_join_order", "join-order search strategies"),
    "e7": ("bench_e7_bao", "Bao hint-set steering"),
    "e8": ("bench_e8_lero", "Lero pairwise plan ranking"),
    "e9": ("bench_e9_eraser", "Eraser regression elimination"),
    "e10": ("bench_e10_pilotscope", "PilotScope middleware overhead"),
    "e11": ("bench_e11_framework_ablation", "unified-framework ablation"),
    "e12": ("bench_e12_mixed_predicates", "mixed/disjunctive predicates"),
    "e13": ("bench_e13_zeroshot_transfer", "zero-shot cost transfer"),
    "t1": ("bench_t1_taxonomy", "taxonomy-wide estimator sweep"),
    "p1": (
        "bench_p1_inference_throughput",
        "batched inference + cardinality-cache hit rate",
    ),
    "p2": (
        "bench_p2_serving",
        "serving runtime: sustained qps, tail latency, determinism",
    ),
    "p3": (
        "bench_p3_chaos",
        "serving stack under deterministic fault injection",
    ),
    "p4": (
        "bench_p4_lifecycle",
        "model lifecycle: experience store, registry, retraining",
    ),
    "p5": (
        "bench_p5_oracle",
        "plan-correctness oracle: clean run, mutation catch rate, determinism",
    ),
    "p6": (
        "bench_p6_fastpath",
        "vectorized kernels + plan-cache fast path: speedups, hit rate, exactness",
    ),
    "p7": (
        "bench_p7_rewrite",
        "learned query rewriting: oracle cleanliness, promotion gates, feedback",
    ),
    "p8": (
        "bench_p8_bounds",
        "pessimistic bounds: soundness, guard visibility, risk-bounded p99",
    ),
    "p9": (
        "bench_p9_fabric",
        "sharded fabric: 10^5-query scale-out, tenant isolation, determinism",
    ),
    "p10": (
        "bench_p10_transfer",
        "cross-schema transfer: zero-shot q-error gates, schema-fleet drift recovery",
    ),
}


def load(key: str):
    """Import and return one registered benchmark module by key."""
    try:
        module, _ = BENCHMARKS[key]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {key!r}; registered: {sorted(BENCHMARKS)}"
        ) from None
    return importlib.import_module(f"benchmarks.{module}")
