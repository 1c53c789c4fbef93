"""Property-based tests on cross-cutting invariants (hypothesis)."""

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ExecutionSimulator, execute_cardinality
from repro.ml.setconv import SetConvNet
from repro.ml.treeconv import PlanTreeCorpus, TreeConvNet
from repro.optimizer import Optimizer
from repro.sql import ColumnRef, Op, Predicate, Query, WorkloadGenerator, parse_query
from repro.storage import make_imdb_lite, make_stats_lite, make_tpch_lite


# ---------------------------------------------------------------------------
# Parser <-> printer round trip on arbitrary generated queries
# ---------------------------------------------------------------------------


class TestParserRoundTrip:
    @given(st.integers(0, 10_000), st.sampled_from(["stats", "imdb", "tpch"]))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_generated_queries(self, stats_db, imdb_db, tpch_db, seed, which):
        db = {"stats": stats_db, "imdb": imdb_db, "tpch": tpch_db}[which]
        gen = WorkloadGenerator(db, seed=seed)
        q = gen.random_query(1, 4)
        assert parse_query(q.to_sql()) == q

    @given(st.integers(0, 3000))
    @settings(max_examples=25, deadline=None)
    def test_double_roundtrip_stable(self, stats_db, seed):
        gen = WorkloadGenerator(stats_db, seed=seed)
        q = gen.random_query(1, 3)
        once = parse_query(q.to_sql())
        twice = parse_query(once.to_sql())
        assert once == twice


# ---------------------------------------------------------------------------
# Executor invariants
# ---------------------------------------------------------------------------


class TestExecutorInvariants:
    @given(st.integers(0, 5000))
    @settings(max_examples=25, deadline=None)
    def test_adding_predicate_never_increases_cardinality(self, stats_db,
                                                          stats_executor, seed):
        gen = WorkloadGenerator(stats_db, seed=seed)
        q = gen.random_query(1, 3)
        base = stats_executor.cardinality(q)
        # Conjoin one more predicate on some table.
        target = q.tables[0]
        values = None
        for c in stats_db.table(target).column_names:
            col = stats_db.table(target).column(c)
            if not col.is_key:
                values = (c, col.values)
                break
        if values is None:
            return
        cname, vals = values
        pred = Predicate(ColumnRef(target, cname), Op.LE, float(np.median(vals)))
        stricter = Query(q.tables, q.joins, q.predicates + (pred,))
        assert stats_executor.cardinality(stricter) <= base

    @given(st.integers(0, 5000))
    @settings(max_examples=20, deadline=None)
    def test_join_bounded_by_filtered_product(self, stats_db, stats_executor, seed):
        gen = WorkloadGenerator(stats_db, seed=seed)
        q = gen.random_query(2, 3)
        card = stats_executor.cardinality(q)
        product = 1
        for t in q.tables:
            product *= stats_executor.cardinality(q.subquery([t]))
        assert card <= product

    @given(st.integers(0, 5000))
    @settings(max_examples=15, deadline=None)
    def test_cardinality_deterministic(self, imdb_db, seed):
        gen = WorkloadGenerator(imdb_db, seed=seed)
        q = gen.random_query(1, 4)
        a = execute_cardinality(imdb_db, q)
        b = execute_cardinality(imdb_db, q)
        assert a == b


# ---------------------------------------------------------------------------
# Planner / simulator invariants
# ---------------------------------------------------------------------------


class TestPlannerInvariants:
    @given(st.integers(0, 5000))
    @settings(max_examples=15, deadline=None)
    def test_dp_cost_is_minimum_over_algorithms(self, stats_db, stats_optimizer, seed):
        gen = WorkloadGenerator(stats_db, seed=seed)
        q = gen.random_query(2, 4, require_predicate=True)
        dp_cost = stats_optimizer.cost(stats_optimizer.plan(q, algorithm="dp"))
        for alg in ("greedy", "left_deep"):
            other = stats_optimizer.cost(stats_optimizer.plan(q, algorithm=alg))
            assert dp_cost <= other + 1e-6

    @given(st.integers(0, 5000))
    @settings(max_examples=15, deadline=None)
    def test_simulated_latency_positive_and_deterministic(
        self, stats_db, stats_optimizer, stats_simulator, seed
    ):
        gen = WorkloadGenerator(stats_db, seed=seed)
        q = gen.random_query(1, 4)
        plan = stats_optimizer.plan(q)
        a = stats_simulator.execute(plan).latency_ms
        b = stats_simulator.execute(plan).latency_ms
        assert a == b > 0

    @given(st.integers(0, 5000))
    @settings(max_examples=10, deadline=None)
    def test_every_enumerated_plan_is_executable(self, imdb_db, imdb_optimizer,
                                                 imdb_simulator, seed):
        from repro.optimizer import HintSet

        gen = WorkloadGenerator(imdb_db, seed=seed)
        q = gen.random_query(2, 4, require_predicate=True)
        for arm in HintSet.bao_arms():
            plan = imdb_optimizer.plan(q, hints=arm)
            result = imdb_simulator.execute(plan)
            assert result.cardinality >= 0


# ---------------------------------------------------------------------------
# Neural-net gradient checks on the structured models
# ---------------------------------------------------------------------------


def _numeric_grad(f, param, eps=1e-5):
    grad = np.zeros_like(param)
    flat, g = param.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        hi = f()
        flat[i] = old - eps
        lo = f()
        flat[i] = old
        g[i] = (hi - lo) / (2 * eps)
    return grad


def _float64_copy(net):
    """``net`` with its flat buffers cast to float64 and its layers re-bound
    to them: every buffer of a pass takes its dtype from the parameters, so
    central differences at ``eps = 1e-5`` are not lost to float32 rounding."""
    net = copy.deepcopy(net)
    net.flat_params = net.flat_params.astype(np.float64)
    net.flat_grads = np.zeros_like(net.flat_params)
    net._bind()
    return net


class TestStructuredGradients:
    def test_treeconv_gradient_matches_numerical(self):
        # Ragged batch (bushy, single-node, chain, left-deep) through a
        # two-layer conv stack: the second layer's backward is the one that
        # routes gradient to children.
        rng = np.random.default_rng(0)
        trees = [
            (
                rng.normal(size=(5, 4)),
                np.array([1, 2, -1, -1, -1]),
                np.array([4, 3, -1, -1, -1]),
            ),
            (rng.normal(size=(1, 4)), np.array([-1]), np.array([-1])),
            (rng.normal(size=(3, 4)), np.array([1, 2, -1]), np.array([-1, -1, -1])),
            (
                rng.normal(size=(7, 4)),
                np.array([1, 2, 3, -1, -1, -1, -1]),
                np.array([6, 5, 4, -1, -1, -1, -1]),
            ),
        ]
        target = np.array([[1.0], [2.0], [-1.0], [0.5]])
        net = _float64_copy(TreeConvNet(4, (5, 4), (3,), seed=1))
        # A training batch: it carries the parent slots the backward reads.
        _, batches = next(PlanTreeCorpus.from_trees(trees).plan([np.arange(len(trees))], len(trees)))
        batch = next(batches)
        batch = dataclasses.replace(batch, layer1=batch.layer1.astype(np.float64))

        def loss():
            return float(((net.forward(batch) - target) ** 2).sum())

        pred = net.forward(batch)
        net._backward(batch, 2.0 * (pred - target))
        layers = [*net.conv_layers, *net.head]
        analytic = [g for layer in layers for g in (layer.dw, layer.db)]
        params = net.parameters()
        for p, a in zip(params, analytic):
            numeric = _numeric_grad(loss, p)
            assert np.allclose(a, numeric, atol=1e-3), "treeconv gradient mismatch"

    def test_setconv_gradient_matches_numerical(self):
        rng = np.random.default_rng(1)
        samples = [
            {"a": rng.normal(size=(2, 3))},
            {"a": rng.normal(size=(3, 3))},
        ]
        target = np.array([[0.3], [0.7]])
        net = SetConvNet({"a": 3}, seed=2)
        batch = {"a": [s["a"] for s in samples]}

        def loss():
            return float(((net.forward(batch) - target) ** 2).sum())

        pred = net.forward(batch)
        net._backward(2.0 * (pred - target))
        analytic = net.gradients()
        for p, a in zip(net.parameters(), analytic):
            numeric = _numeric_grad(loss, p)
            assert np.allclose(a, numeric, atol=1e-3), "setconv gradient mismatch"

    def test_made_gradient_matches_numerical(self):
        from repro.ml.autoregressive import MaskedAutoregressiveNetwork

        rng = np.random.default_rng(2)
        rows = rng.integers(0, 3, size=(6, 2))
        net = MaskedAutoregressiveNetwork([3, 3], hidden=(4,), seed=3)

        def loss():
            # NLL must be recomputed exactly as _loss_and_backward does.
            logits = net.forward(net.encode(rows))
            total = 0.0
            n = rows.shape[0]
            for i in range(2):
                block = net.column_logits(logits, i)
                shifted = block - block.max(axis=1, keepdims=True)
                lsm = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
                total -= lsm[np.arange(n), rows[:, i]].sum()
            return total / n

        net._loss_and_backward(rows)
        for w, gw in zip(net.weights, net._grads_w):
            numeric = _numeric_grad(loss, w)
            assert np.allclose(gw, numeric, atol=1e-4), "made weight gradient mismatch"
        for b, gb in zip(net.biases, net._grads_b):
            numeric = _numeric_grad(loss, b)
            assert np.allclose(gb, numeric, atol=1e-4), "made bias gradient mismatch"


# ---------------------------------------------------------------------------
# Determinism across whole databases
# ---------------------------------------------------------------------------


class TestGlobalDeterminism:
    @pytest.mark.parametrize(
        "maker",
        [
            pytest.param(lambda: make_stats_lite(scale=0.2, seed=3), id="make_stats_lite"),
            pytest.param(lambda: make_imdb_lite(scale=0.2), id="make_imdb_lite"),
            pytest.param(make_tpch_lite, id="make_tpch_lite"),
        ],
    )
    def test_database_pipeline_reproducible(self, maker):
        def fingerprint():
            db = maker()
            opt = Optimizer(db)
            sim = ExecutionSimulator(db)
            gen = WorkloadGenerator(db, seed=9)
            total = 0.0
            for q in gen.workload(8, 1, 4):
                total += sim.execute(opt.plan(q)).latency_ms
            return total

        assert fingerprint() == fingerprint()
