"""P6: vectorized kernels + parameterized plan-cache fast path, gated.

Ten properties are measured and gated:

1. **Executor throughput**: the vectorized :class:`CardinalityExecutor`
   (shared sort-merge/expand kernels, key-index cache) must be >= 10x
   faster than the pre-kernel interpreted baseline -- the pure-Python
   row-at-a-time :func:`repro.oracle.reference.reference_count` -- over a
   generated workload, while producing byte-equal counts.
2. **Interpreter throughput**: the vectorized
   :class:`~repro.oracle.planexec.PlanInterpreter` must be >= 10x faster
   than a row-at-a-time plan walker (scans via scalar predicate checks,
   joins via Python dict-of-lists probing) over optimizer-produced plans,
   again with byte-equal counts.
3. **Plan-cache hit rate**: the parameterized serving scenario (few
   templates, many literal bindings) must serve every request and see a
   > 80% plan-cache hit rate.
4. **Tree-conv training kernel**: ``TreeConvNet.fit`` over one flat
   plan-tree corpus (every epoch's batch indices planned a block of epochs
   at a time, layer 1 read from a per-fit ``[node; left; right]`` table,
   one-gather conv above it, padded max-pool, parent-slot backward, one
   in-place flat Adam update) must be >= 2.1x faster than
   the loop + ``np.add.at`` kernel it replaced
   (``tests/treeconv_reference.py``, run in the kernel's float32) on
   Bao-shaped plan trees, with every
   trained parameter and every prediction ``array_equal``.
5. **Arm-sweep planning kernel**: ``Optimizer.plan_arms`` over Bao's 12
   hint sets (one DP pass, per-arm best entries in one table) must be
   >= 3x faster than one full DP per arm (``tests/planner_reference.py``)
   with every arm's ``Plan`` ``==`` the reference's.
6. **GBDT kernel**: ``GradientBoostedTrees`` as flat node arrays (every
   feature binned once per fit, each node's valid cuts found from per-bin
   counts and screened from one ``bincount`` of the target, only the cuts
   within the screen's rounding bound of the best verified with the exact
   prefix sums -- none when one kept cut is sure to beat the least gain --,
   level-wise ensemble predict) against the object-graph model it replaced
   (``tests/gbdt_reference.py``) on a query-feature-shaped matrix: ``fit``
   >= 2.5x, 400-row ``predict`` >= 8x, one-row ``predict`` >= 3x, with
   every tree and every prediction ``==``.
7. **Plan execution**: ``ExecutionSimulator.execute`` as one
   ``CardinalityExecutor.plan_cardinalities`` pass (each node counted
   once, each base table filtered once per plan, implicit unit weights,
   direct-address messages, a memo keyed by field tuples, hash-once query
   / plan values) against the per-node loop and sort-only kernels it
   replaced (``tests/executor_reference.py``) on a prepared-mix-shaped
   plan stream (hot templates x bindings through the plan cache, shuffled
   with one-off queries), cold memo on both sides: >= 1.5x, with every
   node cardinality ``==`` and every cost and latency bit-equal.
8. **Planning estimates**: the native estimator's ``estimate_batch`` over
   the DP's batches (one table selectivity per distinct predicate set per
   batch, array-op histogram) against the scalar loop it replaced
   (``tests/statistics_reference.py``) on stats-lite queries: >= 1.5x,
   with every estimate ``==``.  Timing only, so not in the export.
9. **Exactness + determinism**: counts stay byte-equal to the independent
   reference on every fixture including the deep chain whose count
   exceeds 2**53 (where float64 silently rounds), and two same-seed
   cache-enabled serving runs must export byte-identical telemetry.
10. **Decision featurization**: one Bao decision's deduped candidates
    through one :class:`~repro.costmodel.features.NodeTable` (each
    distinct node featurized once, in one fill per plan, the batch one
    gather from the table) against the per-node path it replaced
    (``PlanFeaturizer.node_features`` through a per-decision memo, trees
    stacked and batched by ``PlanTreeBatch.from_trees``): >= 1.3x, with
    every tree and every batch field ``array_equal``.  Timing only, so
    not in the export.

Gates: ``python -m pytest`` on this file; deterministic export (counts,
cache stats, telemetry -- no timings):
``python -m benchmarks p6 --export out.json``.
"""

import json
import time
from collections import defaultdict

import numpy as np

from repro.bench import render_stats, render_table
from repro.costmodel import PlanFeaturizer
from repro.costmodel.features import NodeTable, plan_to_tree_arrays
from repro.e2e.exploration import HintSetExploration
from repro.engine import CardinalityExecutor, ExecutionSimulator
from repro.engine.plans import JoinNode, ScanNode
from repro.ml.gbdt import GradientBoostedTrees
from repro.ml.treeconv import DTYPE, PlanTreeBatch, TreeConvNet
from repro.optimizer import HintSet, Optimizer, PlanCache
from repro.optimizer.traditional import TraditionalCardinalityEstimator
from repro.oracle.fixtures import make_deep_chain
from repro.oracle.planexec import PlanInterpreter
from repro.oracle.reference import _holds, reference_count
from repro.serve.scenarios import parameterized_scenario
from repro.sql import WorkloadGenerator
from repro.storage.datasets import make_stats_lite
from tests.executor_reference import reference_execute, reference_simulator
from tests.gbdt_reference import ReferenceGradientBoostedTrees, reference_node_table
from tests.planner_reference import reference_plan_arms
from tests.statistics_reference import ReferenceTraditionalEstimator
from tests.treeconv_reference import ReferenceTreeConvNet

SCALE = 0.3
EXEC_QUERIES = 10
CHAIN_TABLES = 8
FIT_EPOCHS = 30
SWEEP_QUERIES = 100
SPEEDUP_GATE = 10.0
FIT_SPEEDUP_GATE = 2.1
SWEEP_SPEEDUP_GATE = 3.0
PLAN_EXECUTION_SPEEDUP_GATE = 1.5
PLANNING_SPEEDUP_GATE = 1.5
DECISION_SPEEDUP_GATE = 1.3
GBDT_SPEEDUP_GATES = {"fit": 2.5, "predict 400 rows": 8.0, "predict 1 row": 3.0}
HIT_RATE_GATE = 0.8


def _workload(db, seed: int, n: int):
    return WorkloadGenerator(db, seed=seed).workload(
        n, 1, 3, require_predicate=True
    )


# -- the pre-kernel interpreted plan walker (baseline, kept pure Python) ------------


def _interpreted_scan(db, node: ScanNode) -> dict[str, list[int]]:
    tbl = db.table(node.table)
    cols = {p.column.column: tbl.values(p.column.column) for p in node.predicates}
    rows = []
    for r in range(tbl.n_rows):
        if all(_holds(p, cols[p.column.column][r]) for p in node.predicates):
            rows.append(r)
    return {node.table: rows}


def _interpreted_join(db, node: JoinNode) -> dict[str, list[int]]:
    left = _interpreted_walk(db, node.left)
    right = _interpreted_walk(db, node.right)
    first, rest = node.conditions[0], node.conditions[1:]
    if first.left.table in left:
        l_ref, r_ref = first.left, first.right
    else:
        l_ref, r_ref = first.right, first.left
    build_vals = db.table(r_ref.table).values(r_ref.column)
    index: dict = defaultdict(list)
    for i, rrow in enumerate(right[r_ref.table]):
        index[build_vals[rrow]].append(i)
    probe_vals = db.table(l_ref.table).values(l_ref.column)
    out: dict[str, list[int]] = {t: [] for t in (*left, *right)}
    for j, lrow in enumerate(left[l_ref.table]):
        for i in index.get(probe_vals[lrow], ()):
            for t, rows in left.items():
                out[t].append(rows[j])
            for t, rows in right.items():
                out[t].append(rows[i])
    for cond in rest:
        lv = db.table(cond.left.table).values(cond.left.column)
        rv = db.table(cond.right.table).values(cond.right.column)
        keep = [
            k
            for k, (a, b) in enumerate(
                zip(out[cond.left.table], out[cond.right.table])
            )
            if lv[a] == rv[b]
        ]
        out = {t: [rows[k] for k in keep] for t, rows in out.items()}
    return out


def _interpreted_walk(db, node) -> dict[str, list[int]]:
    if isinstance(node, ScanNode):
        return _interpreted_scan(db, node)
    return _interpreted_join(db, node)


def interpreted_plan_count(db, plan) -> int:
    """Row-at-a-time plan execution: the shape of the code every consumer
    hand-rolled before the shared kernels existed, minus the numpy."""
    rows = _interpreted_walk(db, plan.root)
    return len(next(iter(rows.values())))


# -- measured passes --------------------------------------------------------------


def executor_pass(seed: int = 0) -> dict:
    """Vectorized executor vs the pure-Python reference, same workload."""
    db = make_stats_lite(scale=SCALE, seed=seed)
    queries = _workload(db, seed + 17, EXEC_QUERIES)

    t0 = time.perf_counter()
    baseline = [reference_count(db, q) for q in queries]
    t_base = time.perf_counter() - t0

    executor = CardinalityExecutor(db)
    t0 = time.perf_counter()
    counts = [executor.cardinality(q) for q in queries]
    t_vec = time.perf_counter() - t0

    return {
        "n_queries": len(queries),
        "counts": counts,
        "baseline_counts": baseline,
        "t_baseline_s": t_base,
        "t_vectorized_s": t_vec,
        "speedup": t_base / max(t_vec, 1e-9),
    }


def interpreter_pass(seed: int = 0) -> dict:
    """Vectorized plan interpreter vs the row-at-a-time walker, same plans."""
    db = make_stats_lite(scale=SCALE, seed=seed)
    queries = _workload(db, seed + 29, 6)
    optimizer = Optimizer(db)
    plans = [optimizer.plan(q) for q in queries]

    t0 = time.perf_counter()
    baseline = [interpreted_plan_count(db, plan) for plan in plans]
    t_base = time.perf_counter() - t0

    interp = PlanInterpreter(db)
    t0 = time.perf_counter()
    counts = [interp.count(plan) for plan in plans]
    t_vec = time.perf_counter() - t0

    return {
        "n_plans": len(plans),
        "counts": counts,
        "baseline_counts": baseline,
        "t_baseline_s": t_base,
        "t_vectorized_s": t_vec,
        "speedup": t_base / max(t_vec, 1e-9),
    }


def treeconv_fit_pass(seed: int = 0) -> dict:
    """Corpus training kernel vs the loop kernel it replaced, same trees.

    The trees are what Bao's risk model sees: three arms' plans per query,
    featurized; the nets are its ensemble member's shape.  Best of three
    fits each, interleaved, so a slow moment on the box hits both sides.
    """
    db = make_stats_lite(scale=SCALE, seed=seed)
    optimizer = Optimizer(db)
    featurizer = PlanFeaturizer(db, optimizer.estimator)
    queries = WorkloadGenerator(db, seed=seed + 41).workload(
        50, 2, 4, require_predicate=True
    )
    trees = [
        plan_to_tree_arrays(optimizer.plan(q, hints=arm), featurizer)
        for q in queries
        for arm in HintSet.bao_arms()[:3]
    ]
    y = np.random.default_rng(seed).normal(size=len(trees))

    def timed_fit(net):
        t0 = time.perf_counter()
        net.fit(trees, y, epochs=FIT_EPOCHS, seed=seed)
        return time.perf_counter() - t0, net

    t_base = t_vec = float("inf")
    for _ in range(3):
        # The loop kernel computes in its parameters' dtype: the kernel's.
        reference = ReferenceTreeConvNet(
            featurizer.node_dim, conv_channels=(32, 32), head_hidden=(16,), seed=seed
        )
        t, baseline = timed_fit(reference.astype(DTYPE))
        t_base = min(t_base, t)
        t, net = timed_fit(
            TreeConvNet(
                featurizer.node_dim, conv_channels=(32, 32), head_hidden=(16,), seed=seed
            )
        )
        t_vec = min(t_vec, t)

    return {
        "n_trees": len(trees),
        "n_steps": FIT_EPOCHS * ((len(trees) + 31) // 32),  # batch_size 32
        "parameters_equal": all(
            np.array_equal(a, b)
            for a, b in zip(baseline.parameters(), net.parameters())
        ),
        "predictions_equal": np.array_equal(
            baseline.predict(trees), net.predict(trees)
        ),
        "t_baseline_s": t_base,
        "t_vectorized_s": t_vec,
        "speedup": t_base / max(t_vec, 1e-9),
    }


def arm_sweep_pass(seed: int = 0) -> dict:
    """One sweep per query vs one DP per arm, Bao's 12 arms, same coster.

    Best of three passes each, interleaved; the shared cardinality cache
    is warm for both sides after the first pass, so what is timed is
    enumeration, not estimation.
    """
    db = make_stats_lite(scale=SCALE, seed=seed)
    optimizer = Optimizer(db)
    arms = HintSet.bao_arms()
    queries = WorkloadGenerator(db, seed=seed + 53).workload(
        SWEEP_QUERIES, 2, 6, require_predicate=True
    )

    t_base = t_sweep = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        baseline = [reference_plan_arms(q, optimizer.coster, arms) for q in queries]
        t_base = min(t_base, time.perf_counter() - t0)
        t0 = time.perf_counter()
        plans = [optimizer.plan_arms(q, arms) for q in queries]
        t_sweep = min(t_sweep, time.perf_counter() - t0)

    return {
        "n_queries": len(queries),
        "n_arms": len(arms),
        "plans_equal": plans == baseline,
        "distinct_plans": sum(len({id(p) for p in per_query}) for per_query in plans),
        "t_baseline_s": t_base,
        "t_sweep_s": t_sweep,
        "speedup": t_base / max(t_sweep, 1e-9),
    }


def gbdt_kernel_pass(seed: int = 0) -> dict:
    """Array GBDT kernel vs the object-graph model it replaced, same matrix.

    The matrix has the shape ``FlatQueryFeaturizer`` gives the drift
    scenario's estimator: 90 columns, 28 of them never set, 50 indicator
    columns, 12 range bounds that are zero when the column is not
    filtered; the model is ``GBDTQueryEstimator``'s (60 stages, depth 5).
    Best of three each, interleaved; the one-row figure is per call over
    200 calls.
    """
    rng = np.random.default_rng(seed)
    n = 350
    x = np.zeros((n + 400, 90))
    x[:, 28:78] = rng.random((n + 400, 50)) < rng.uniform(0.03, 0.5, 50)
    x[:, 78:] = (rng.random((n + 400, 12)) < 0.5) * rng.random((n + 400, 12))
    x, batch = x[:n], x[n:]
    y = 3 + 2 * x[:, 30] - x[:, 40] + 4 * x[:, 80] + rng.normal(scale=0.5, size=n)

    def timed(fn, repeat=1):
        t0 = time.perf_counter()
        for _ in range(repeat):
            fn()
        return (time.perf_counter() - t0) / repeat

    kernels = {"baseline": ReferenceGradientBoostedTrees, "kernel": GradientBoostedTrees}
    times = defaultdict(lambda: float("inf"))
    models = {}
    for _ in range(3):
        for side, kernel in kernels.items():
            model = kernel(n_estimators=60, max_depth=5, learning_rate=0.15, seed=seed)
            models[side] = model
            for call, t in (
                ("fit", timed(lambda: model.fit(x, y))),
                ("predict 400 rows", timed(lambda: model.predict(batch))),
                ("predict 1 row", timed(lambda: model.predict(batch[:1]), repeat=200)),
            ):
                times[call, side] = min(times[call, side], t)

    baseline, model = models["baseline"], models["kernel"]
    table = reference_node_table(baseline.trees_)
    return {
        "shape": x.shape,
        "n_nodes": model.feature_.shape[0],
        "trees_equal": baseline.base_ == model.base_
        and all(
            np.array_equal(table[name], getattr(model, f"{name}_")) for name in table
        ),
        "predictions_equal": np.array_equal(
            baseline.predict(batch), model.predict(batch)
        )
        and np.array_equal(baseline.staged_predict(x), model.staged_predict(x)),
        "times": dict(times),
        "speedup": {
            call: times[call, "baseline"] / max(times[call, "kernel"], 1e-9)
            for call in GBDT_SPEEDUP_GATES
        },
    }


def plan_execution_pass(seed: int = 0) -> dict:
    """One pass per plan vs the per-node loop, same plan stream.

    The stream has the shape of ``perf/``'s ``native_prepared_mix``: hot
    templates x 15 bindings through a plan cache, shuffled with one-off
    queries, 2-4 tables.  Plans are built first; what is timed is
    ``execute`` on a fresh simulator (cold memo, as each serving round
    starts) -- best of three each, interleaved.
    """
    db = make_stats_lite(scale=SCALE, seed=seed)
    queries = WorkloadGenerator(db, seed=seed + 61).parameterized_workload(
        16, 15, 2, 4, require_predicate=True
    ) + WorkloadGenerator(db, seed=seed + 62).workload(
        60, 2, 4, require_predicate=True
    )
    order = np.random.default_rng(seed + 63).permutation(len(queries))
    optimizer, cache = Optimizer(db), PlanCache(256)
    plans = [optimizer.plan_cached(queries[i], cache)[0] for i in order]

    t_base = t_pass = float("inf")
    for _ in range(3):
        reference = reference_simulator(db)
        t0 = time.perf_counter()
        baseline = [reference_execute(reference, plan) for plan in plans]
        t_base = min(t_base, time.perf_counter() - t0)
        simulator = ExecutionSimulator(db)
        t0 = time.perf_counter()
        results = [simulator.execute(plan) for plan in plans]
        t_pass = min(t_pass, time.perf_counter() - t0)

    return {
        "n_plans": len(plans),
        "n_nodes": sum(plan.root.n_nodes for plan in plans),
        "cardinality_calls": {
            "baseline": reference.executor.cache_stats(),
            "one_pass": simulator.executor.cache_stats(),
        },
        "cards_equal": all(
            r.node_cards == b.node_cards for r, b in zip(results, baseline)
        ),
        "costs_equal": all(
            r.node_costs == b.node_costs and r.latency_ms == b.latency_ms
            for r, b in zip(results, baseline)
        ),
        "t_baseline_s": t_base,
        "t_pass_s": t_pass,
        "speedup": t_base / max(t_pass, 1e-9),
    }


def planning_pass(seed: int = 0) -> dict:
    """The DP's estimate batches: ``estimate_batch`` vs the scalar loop.

    Each batch is what one plan-cache miss hands the native estimator --
    every connected sub-query of a 2-5 table stats-lite query.  The
    baseline is ``tests/statistics_reference.py``'s estimator (no
    selectivity memo, the per-bucket histogram loop) over the same
    statistics; texts and hashes are warm on both sides.  Best of three
    each, interleaved.
    """
    db = make_stats_lite(scale=SCALE, seed=seed)
    estimator = TraditionalCardinalityEstimator(db)
    reference = ReferenceTraditionalEstimator(db, estimator.stats)
    queries = WorkloadGenerator(db, seed=seed + 71).workload(
        SWEEP_QUERIES, 2, 5, require_predicate=True
    )
    batches = [q.connected_subqueries() for q in queries]

    t_base = t_batch = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        baseline = [[reference.estimate(q) for q in batch] for batch in batches]
        t_base = min(t_base, time.perf_counter() - t0)
        t0 = time.perf_counter()
        values = [estimator.estimate_batch(batch) for batch in batches]
        t_batch = min(t_batch, time.perf_counter() - t0)

    return {
        "n_batches": len(batches),
        "n_estimates": sum(map(len, batches)),
        "values_equal": all(
            v.tobytes() == np.array(b, dtype=float).tobytes()
            for v, b in zip(values, baseline)
        ),
        "t_baseline_s": t_base,
        "t_batch_s": t_batch,
        "speedup": t_base / max(t_batch, 1e-9),
    }


def _per_node_decision(candidates, featurizer):
    """The per-node decision path: a ``(query, node) -> row`` memo filled by
    ``node_features``, each tree stacked, the batch built by ``from_trees``."""
    memo: dict = {}
    trees = []
    for c in candidates:
        plan = c.plan
        feats, left, right = [], [], []

        def visit(node) -> int:
            index = len(feats)
            key = (plan.query, node)
            if key not in memo:
                memo[key] = featurizer.node_features(plan, node)
            feats.append(memo[key])
            left.append(-1)
            right.append(-1)
            if isinstance(node, JoinNode):
                left[index] = visit(node.left)
                right[index] = visit(node.right)
            return index

        visit(plan.root)
        trees.append((np.stack(feats), np.array(left), np.array(right)))
    return trees, PlanTreeBatch.from_trees(trees)


def _table_decision(candidates, featurizer):
    table = NodeTable(featurizer, [c.plan for c in candidates])
    trees = [plan_to_tree_arrays(c.plan, featurizer, table=table) for c in candidates]
    return trees, table.batch()


def decision_featurization_pass(seed: int = 0) -> dict:
    """Bao's decisions, featurized: node table vs the per-node path.

    Each decision is what :class:`HintSetExploration` hands Bao's risk
    model for a 2-6 table stats-lite query (12 arms, deduped); the
    cardinality cache is warm for both sides, as after the arm sweep.
    Best of three each, interleaved.
    """
    db = make_stats_lite(scale=SCALE, seed=seed)
    optimizer = Optimizer(db)
    featurizer = PlanFeaturizer(db, coster=optimizer.coster)
    exploration = HintSetExploration(optimizer)
    queries = WorkloadGenerator(db, seed=seed + 59).workload(
        SWEEP_QUERIES, 2, 6, require_predicate=True
    )
    decisions = [exploration.candidates(q) for q in queries]

    t_base = t_table = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        baseline = [_per_node_decision(d, featurizer) for d in decisions]
        t_base = min(t_base, time.perf_counter() - t0)
        t0 = time.perf_counter()
        tabled = [_table_decision(d, featurizer) for d in decisions]
        t_table = min(t_table, time.perf_counter() - t0)

    def same(a, b) -> bool:
        (trees_a, batch_a), (trees_b, batch_b) = a, b
        return all(
            np.array_equal(x, y) for ta, tb in zip(trees_a, trees_b) for x, y in zip(ta, tb)
        ) and all(
            np.array_equal(getattr(batch_a, f), getattr(batch_b, f))
            for f in ("layer1", "idx3", "tree_slices", "pad")
        )

    return {
        "n_decisions": len(decisions),
        "n_candidates": sum(map(len, decisions)),
        "equal": all(same(a, b) for a, b in zip(tabled, baseline)),
        "t_baseline_s": t_base,
        "t_table_s": t_table,
        "speedup": t_base / max(t_table, 1e-9),
    }


def serving_pass(seed: int = 0):
    """One cache-enabled parameterized serving run; returns the scenario."""
    scenario = parameterized_scenario(scale=SCALE, seed=seed)
    report = scenario.run()
    return scenario, report


def fixture_counts(seed: int = 0) -> list[dict]:
    """Exactness rows: executor vs reference (and closed form) per fixture."""
    rows = []

    db = make_stats_lite(scale=SCALE, seed=seed)
    executor = CardinalityExecutor(db)
    for i, q in enumerate(_workload(db, seed + 17, EXEC_QUERIES)):
        rows.append(
            {
                "fixture": f"stats_lite/q{i}",
                "count": executor.cardinality(q),
                "reference": reference_count(db, q),
            }
        )

    chain_db, chain_q, expected = make_deep_chain(CHAIN_TABLES, seed=seed)
    rows.append(
        {
            "fixture": f"deep_chain/{CHAIN_TABLES} (> 2**53)",
            "count": CardinalityExecutor(chain_db).cardinality(chain_q),
            "reference": reference_count(chain_db, chain_q),
            "closed_form": expected,
        }
    )
    return rows


def export(seed: int = 0) -> str:
    """Deterministic content only: no wall-clock timings or speedups."""
    scenario, report = serving_pass(seed)
    blob = {
        "seed": seed,
        "executor_counts": executor_pass(seed)["counts"],
        "interpreter_counts": interpreter_pass(seed)["counts"],
        "fixtures": [
            {k: str(v) for k, v in row.items()} for row in fixture_counts(seed)
        ],
        "plan_cache": scenario.plan_cache.stats(),
        "n_served": report.n_served,
        "telemetry": json.loads(scenario.deployment.telemetry.to_json()),
    }
    return json.dumps(blob, indent=2, sort_keys=True, default=str) + "\n"


# -- gates (pytest-collectable) -----------------------------------------------------


def test_p6_executor_speedup_and_exactness():
    result = executor_pass(seed=0)
    assert result["counts"] == result["baseline_counts"]
    print(
        render_table(
            "P6: executor vs interpreted reference",
            ["queries", "baseline_s", "vectorized_s", "speedup"],
            [(
                result["n_queries"],
                f"{result['t_baseline_s']:.3f}",
                f"{result['t_vectorized_s']:.3f}",
                f"{result['speedup']:.1f}x",
            )],
            note=f"gate: >= {SPEEDUP_GATE:.0f}x",
        )
    )
    assert result["speedup"] >= SPEEDUP_GATE, (
        f"executor speedup {result['speedup']:.1f}x below the "
        f"{SPEEDUP_GATE:.0f}x gate"
    )


def test_p6_interpreter_speedup_and_exactness():
    result = interpreter_pass(seed=0)
    assert result["counts"] == result["baseline_counts"]
    print(
        render_table(
            "P6: plan interpreter vs row-at-a-time walker",
            ["plans", "baseline_s", "vectorized_s", "speedup"],
            [(
                result["n_plans"],
                f"{result['t_baseline_s']:.3f}",
                f"{result['t_vectorized_s']:.3f}",
                f"{result['speedup']:.1f}x",
            )],
            note=f"gate: >= {SPEEDUP_GATE:.0f}x",
        )
    )
    assert result["speedup"] >= SPEEDUP_GATE, (
        f"interpreter speedup {result['speedup']:.1f}x below the "
        f"{SPEEDUP_GATE:.0f}x gate"
    )


def test_p6_treeconv_fit_speedup_and_exactness():
    result = treeconv_fit_pass(seed=0)
    assert result["parameters_equal"], "trained parameters differ from the loop kernel's"
    assert result["predictions_equal"]
    print(
        render_table(
            "P6: tree-conv fit, corpus kernel vs loop kernel",
            ["trees", "steps", "baseline_s", "vectorized_s", "us/step", "speedup"],
            [(
                result["n_trees"],
                result["n_steps"],
                f"{result['t_baseline_s']:.3f}",
                f"{result['t_vectorized_s']:.3f}",
                f"{1e6 * result['t_vectorized_s'] / result['n_steps']:.0f}",
                f"{result['speedup']:.1f}x",
            )],
            note=f"gate: >= {FIT_SPEEDUP_GATE:.1f}x, parameters and predictions array_equal",
        )
    )
    assert result["speedup"] >= FIT_SPEEDUP_GATE, (
        f"tree-conv fit speedup {result['speedup']:.1f}x below the "
        f"{FIT_SPEEDUP_GATE:.1f}x gate"
    )


def test_p6_arm_sweep_speedup_and_identity():
    result = arm_sweep_pass(seed=0)
    assert result["plans_equal"], "a swept arm's plan differs from its own DP's"
    print(
        render_table(
            "P6: arm sweep, one DP pass vs one DP per arm",
            ["queries", "arms", "distinct", "baseline_s", "sweep_s", "speedup"],
            [(
                result["n_queries"],
                result["n_arms"],
                result["distinct_plans"],
                f"{result['t_baseline_s']:.3f}",
                f"{result['t_sweep_s']:.3f}",
                f"{result['speedup']:.1f}x",
            )],
            note=f"gate: >= {SWEEP_SPEEDUP_GATE:.0f}x, plans ==",
        )
    )
    assert result["speedup"] >= SWEEP_SPEEDUP_GATE, (
        f"arm-sweep speedup {result['speedup']:.1f}x below the "
        f"{SWEEP_SPEEDUP_GATE:.0f}x gate"
    )


def test_p6_gbdt_kernel_speedup_and_identity():
    result = gbdt_kernel_pass(seed=0)
    assert result["trees_equal"], "a fitted tree differs from the object-graph model's"
    assert result["predictions_equal"]
    print(
        render_table(
            f"P6: GBDT, array kernel vs object graph, {result['shape'][0]} x "
            f"{result['shape'][1]}, {result['n_nodes']} nodes",
            ["call", "baseline_ms", "kernel_ms", "speedup", "gate"],
            [
                (
                    call,
                    f"{1e3 * result['times'][call, 'baseline']:.3f}",
                    f"{1e3 * result['times'][call, 'kernel']:.3f}",
                    f"{result['speedup'][call]:.1f}x",
                    f">= {gate:.1f}x",
                )
                for call, gate in GBDT_SPEEDUP_GATES.items()
            ],
            note="trees, base_, predict and staged_predict ==",
        )
    )
    for call, gate in GBDT_SPEEDUP_GATES.items():
        assert result["speedup"][call] >= gate, (
            f"GBDT {call} speedup {result['speedup'][call]:.1f}x below the "
            f"{gate:.1f}x gate"
        )


def test_p6_plan_execution_speedup_and_identity():
    result = plan_execution_pass(seed=0)
    assert result["cards_equal"], "a node cardinality differs from the per-node loop's"
    assert result["costs_equal"], "a node cost or latency is not bit-equal"
    lookups = {
        side: int(stats["hits"] + stats["misses"])
        for side, stats in result["cardinality_calls"].items()
    }
    print(
        render_table(
            "P6: plan execution, one pass per plan vs per-node loop",
            ["plans", "nodes", "lookups base", "lookups pass", "baseline_s", "pass_s", "speedup"],
            [(
                result["n_plans"],
                result["n_nodes"],
                lookups["baseline"],
                lookups["one_pass"],
                f"{result['t_baseline_s']:.3f}",
                f"{result['t_pass_s']:.3f}",
                f"{result['speedup']:.2f}x",
            )],
            note=f"gate: >= {PLAN_EXECUTION_SPEEDUP_GATE:.1f}x, cards ==, costs and "
            "latencies bit-equal; the lookups that went away were memo hits",
        )
    )
    assert lookups["one_pass"] < lookups["baseline"]
    assert result["speedup"] >= PLAN_EXECUTION_SPEEDUP_GATE, (
        f"plan-execution speedup {result['speedup']:.2f}x below the "
        f"{PLAN_EXECUTION_SPEEDUP_GATE:.1f}x gate"
    )


def test_p6_planning_speedup_and_identity():
    result = planning_pass(seed=0)
    assert result["values_equal"], "a batched estimate differs from the scalar loop's"
    print(
        render_table(
            "P6: DP estimate batches, estimate_batch vs scalar loop",
            ["batches", "estimates", "baseline_s", "batch_s", "speedup"],
            [(
                result["n_batches"],
                result["n_estimates"],
                f"{result['t_baseline_s']:.3f}",
                f"{result['t_batch_s']:.3f}",
                f"{result['speedup']:.2f}x",
            )],
            note=f"gate: >= {PLANNING_SPEEDUP_GATE:.1f}x, estimates ==",
        )
    )
    assert result["speedup"] >= PLANNING_SPEEDUP_GATE, (
        f"planning-estimate speedup {result['speedup']:.2f}x below the "
        f"{PLANNING_SPEEDUP_GATE:.1f}x gate"
    )


def test_p6_decision_featurization_speedup_and_identity():
    result = decision_featurization_pass(seed=0)
    assert result["equal"], "a tree or batch field differs from the per-node path's"
    print(
        render_table(
            "P6: Bao decision featurization, node table vs per-node path",
            ["decisions", "candidates", "baseline_s", "table_s", "speedup"],
            [(
                result["n_decisions"],
                result["n_candidates"],
                f"{result['t_baseline_s']:.3f}",
                f"{result['t_table_s']:.3f}",
                f"{result['speedup']:.2f}x",
            )],
            note=f"gate: >= {DECISION_SPEEDUP_GATE:.1f}x, trees and batch fields array_equal",
        )
    )
    assert result["speedup"] >= DECISION_SPEEDUP_GATE, (
        f"decision-featurization speedup {result['speedup']:.2f}x below the "
        f"{DECISION_SPEEDUP_GATE:.1f}x gate"
    )


def test_p6_plan_cache_hit_rate():
    scenario, report = serving_pass(seed=0)
    stats = scenario.plan_cache.stats()
    print(render_stats(stats, title="P6: plan cache"))
    assert report.n_served == scenario.n_requests, "requests were dropped"
    assert stats["hit_rate"] > HIT_RATE_GATE, (
        f"plan-cache hit rate {stats['hit_rate']:.2f} below the "
        f"{HIT_RATE_GATE:.0%} gate"
    )
    # The cache served real traffic, not a no-op: one miss per template
    # (plus re-plannings after any invalidation), the rest hits.
    assert stats["hits"] + stats["misses"] == scenario.n_requests


def test_p6_counts_byte_equal_on_fixtures():
    rows = fixture_counts(seed=0)
    for row in rows:
        assert row["count"] == row["reference"], row["fixture"]
        if "closed_form" in row:
            assert row["count"] == row["closed_form"], row["fixture"]
    chain = rows[-1]
    assert chain["count"] > 2**53  # past float64 exactness
    print(
        render_table(
            "P6: fixture exactness",
            ["fixture", "count", "matches"],
            [(r["fixture"], r["count"], "yes") for r in rows],
        )
    )


def test_p6_determinism_same_seed_exports():
    exports, cache_stats = [], []
    for _ in range(2):
        scenario, _ = serving_pass(seed=3)
        exports.append(scenario.deployment.telemetry.to_json())
        cache_stats.append(scenario.plan_cache.stats())
    assert exports[0] == exports[1], "same-seed cache-enabled runs diverged"
    assert cache_stats[0] == cache_stats[1]
