"""Model lifecycle: experience store, registry, scheduler, gates, e2e loop."""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench import render_stats
from repro.cardest.drift import DDUpDetector, DriftReport
from repro.bench.workloads import apply_drift
from repro.core.errors import ConfigError
from repro.core.framework import CandidatePlan, PlannerModel
from repro.core.interfaces import CardinalityEstimator, Decision, Retrainable
from repro.e2e.bao import BaoOptimizer
from repro.e2e.loop import OptimizationLoop
from repro.e2e.risk_models import (
    EnsembleLatencyModel,
    PairwisePlanComparator,
    TreeConvLatencyModel,
)
from repro.lifecycle import (
    CadenceTrigger,
    DriftTrigger,
    EvalGate,
    ExperienceStore,
    ModelRegistry,
    QErrorTrigger,
    RetrainingScheduler,
    clone_model,
    drift_recovery_scenario,
    lifecycle_stats,
    model_fingerprint,
)
from repro.lifecycle.gates import GateReport
from repro.lifecycle.scheduler import SchedulerContext, linear_quantile
from repro.optimizer.cardcache import CardinalityCache
from repro.optimizer.hints import HintSet
from repro.serve.deployment import DeploymentManager, Stage
from repro.serve.deployment import query_hash as deployment_query_hash
from repro.serve.telemetry import TelemetryBus
from repro.sql.query import ColumnRef, Join, Op, Predicate, Query, query_hash
from repro.storage.datasets import make_stats_lite


# -- the one query-identity scheme (satellite c) --------------------------------


def _equivalent_queries() -> tuple[Query, Query]:
    """The same query constructed with different member orderings."""
    j = Join(ColumnRef("posts", "owner_id"), ColumnRef("users", "id"))
    p1 = Predicate(ColumnRef("users", "reputation"), Op.GT, 100.0)
    p2 = Predicate(ColumnRef("posts", "score"), Op.LE, 10.0)
    a = Query(("users", "posts"), (j,), (p1, p2))
    b = Query(
        ("posts", "users"),
        (Join(ColumnRef("users", "id"), ColumnRef("posts", "owner_id")),),
        (p2, p1),
    )
    return a, b


def test_query_hash_stable_across_equivalent_constructions():
    a, b = _equivalent_queries()
    assert a is not b
    assert a.cache_key == b.cache_key
    assert query_hash(a) == query_hash(b)
    # The memo must not leak into equality/hashing.
    assert a == b and hash(a) == hash(b)


def test_query_hash_reexported_from_deployment():
    # serve.deployment re-exports the canonical scheme, not a copy.
    assert deployment_query_hash is query_hash


def test_cardinality_cache_hits_across_equivalent_instances():
    a, b = _equivalent_queries()
    cache = CardinalityCache(capacity=8)
    tag = ("est", 1, 0)
    cache.insert(tag, a, 42.0)
    # A different-but-equivalent instance must hit the same entry.
    assert cache.lookup(tag, b) == 42.0
    assert cache.hits == 1 and cache.misses == 0


def test_cardinality_cache_peek_leaves_no_trace():
    a, b = _equivalent_queries()
    c = _store_queries(1)[0]
    tag = ("est", 1, 0)

    def filled():
        cache = CardinalityCache(capacity=2)
        cache.insert(tag, a, 42.0)
        cache.insert(tag, c, 7.0)
        return cache

    peeked = filled()
    stats = peeked.stats()
    assert peeked.peek(tag, b) == 42.0  # an equivalent instance, as lookup
    assert peeked.peek(("est", 1, 1), a) is None  # another estimator state
    assert peeked.peek(tag, _store_queries(2)[1]) is None
    assert peeked.stats() == stats  # no hit, no miss
    # ``a`` is still the least recently used entry: the next insert evicts it.
    peeked.insert(tag, _store_queries(2)[1], 1.0)
    assert peeked.peek(tag, a) is None and peeked.peek(tag, c) == 7.0
    assert peeked.evictions == 1
    # A lookup, by contrast, counts a hit and makes ``a`` the newest.
    looked = filled()
    assert looked.lookup(tag, a) == 42.0 and looked.hits == 1
    looked.insert(tag, _store_queries(2)[1], 1.0)
    assert looked.peek(tag, a) == 42.0 and looked.peek(tag, c) is None


# -- experience store (tentpole + satellite d) ----------------------------------


def _store_queries(n: int) -> list[Query]:
    return [
        Query(
            ("users",),
            (),
            (Predicate(ColumnRef("users", "reputation"), Op.GT, float(i)),),
        )
        for i in range(n)
    ]


def _decision(query, latency=3.0, card=10) -> Decision:
    return Decision(
        "live", "learned", latency, card,
        query=query, served_learned=True, native_latency_ms=4.0,
    )


class _KindLog(ExperienceStore):
    """Notes the ``kind`` of every ``add_decision`` call."""

    def __init__(self, capacity: int, *, seed: int = 0) -> None:
        super().__init__(capacity, seed=seed)
        self.kinds: list[str] = []

    def add_decision(self, decision, *, kind="serve") -> None:
        self.kinds.append(kind)
        super().add_decision(decision, kind=kind)


def test_store_dedup_updates_in_place():
    store = ExperienceStore(capacity=10, seed=0)
    (q,) = _store_queries(1)
    store.add_decision(_decision(q, latency=3.0, card=10))
    store.add_decision(_decision(q, latency=5.0, card=12))
    assert len(store) == 1
    rec = next(iter(store._records.values()))
    assert rec.hits == 2
    assert rec.latency_ms == 5.0  # latest observation wins
    assert rec.true_cardinality == 12.0
    assert store.stats()["deduped"] == 1


def test_store_eviction_is_bounded_and_deterministic():
    def run():
        store = ExperienceStore(capacity=8, seed=11)
        for q in _store_queries(50):
            store.add_decision(_decision(q))
        return store

    a, b = run(), run()
    assert len(a) == 8 and len(b) == 8
    assert a.stats()["evicted"] + a.stats()["dropped"] == 50 - 8
    # Same stream + same seed -> byte-identical retained set.
    assert a.snapshot_id() == b.snapshot_id()
    assert ExperienceStore(capacity=8, seed=12).seed != a.seed  # distinct knob
    c = ExperienceStore(capacity=8, seed=12)
    for q in _store_queries(50):
        c.add_decision(_decision(q))
    assert c.snapshot_id() != a.snapshot_id()  # the seed matters


def test_store_drift_tagging_and_labels():
    store = ExperienceStore(capacity=32, seed=0)
    qs = _store_queries(6)
    store.add_decision(_decision(qs[0]))
    store.mark_drift(True)
    store.add_decision(_decision(qs[1]))
    store.mark_drift(False)
    store.add_drift_queries(qs[2:4], [7.0, 8.0])
    assert {r.drift for r in store._records.values() if r.kind == "serve"} == {False, True}
    drift_queries = [r for r in store._records.values() if r.kind == "drift_query"]
    assert all(r.drift and r.source == "warper" for r in drift_queries)
    cards = [r.true_cardinality for r in store._records.values() if r.true_cardinality is not None]
    assert len(cards) == 4  # 2 serve decisions + 2 labelled drift queries
    assert set(cards) >= {7.0, 8.0}
    with pytest.raises(ConfigError):
        ExperienceStore(capacity=0)


@pytest.mark.parametrize("cards", [[0.0, 3.0, 0.0, 1.0], [1.0, 2.0, 3.0, 4.0]])
def test_store_ingests_drift_queries_from_an_iterator(cards):
    """A generator is consumed once, not counted and then zipped empty; a
    true count of 0 is a label like any other."""
    qs = _store_queries(4)
    from_list = ExperienceStore(capacity=32, seed=0)
    from_list.add_drift_queries(qs, cards)
    from_iter = ExperienceStore(capacity=32, seed=0)
    from_iter.add_drift_queries((q for q in qs), iter(cards))
    assert from_iter.ingested == 4
    assert from_iter.snapshot_id() == from_list.snapshot_id()
    labelled = [r.true_cardinality for r in from_iter._records.values()]
    assert sorted(labelled) == sorted(cards)


# -- registry (tentpole) ---------------------------------------------------------


class _ToyModel:
    def __init__(self, weights):
        self.weights = np.asarray(weights, dtype=float)

    def retrain(self) -> None:
        self.weights = self.weights + 1.0


def _refit(challenger):
    """Retrain a freshly cloned challenger and hand it back."""
    challenger.retrain()
    return challenger


def test_registry_lineage_and_champion():
    registry = ModelRegistry(telemetry=TelemetryBus())
    v0 = registry.register(_ToyModel([1.0]), trigger="initial")
    v1 = registry.register(
        _ToyModel([2.0]), parent=v0.version_id, trigger="retrain:drift"
    )
    chain = registry.lineage(v1.version_id)
    assert [v.version_id for v in chain] == [v0.version_id, v1.version_id]
    assert registry.champion_id is None
    registry.record_stage(v0.version_id, "live", reason="initial")
    assert registry.champion_id == v0.version_id
    registry.record_stage(v1.version_id, "shadow", reason="gate_passed")
    assert registry.champion_id == v0.version_id  # shadow does not promote
    registry.record_stage(v1.version_id, "live", reason="auto_promote")
    assert registry.champion_id == v1.version_id
    assert [s["stage"] for s in registry.stage_history(v1.version_id)] == [
        "shadow",
        "live",
    ]
    with pytest.raises(ConfigError):
        registry.register(_ToyModel([3.0]), parent="nope")
    with pytest.raises(ConfigError):
        registry.version("nope")


def test_registry_immutability_verification():
    registry = ModelRegistry(telemetry=TelemetryBus())
    model = _ToyModel([1.0, 2.0])
    v = registry.register(model)
    assert registry.verify(v.version_id)
    model.weights[0] = 99.0  # mutate the frozen artifact
    assert not registry.verify(v.version_id)


def test_model_fingerprint_content_not_identity():
    a, b = _ToyModel([1.0, 2.0]), _ToyModel([1.0, 2.0])
    assert model_fingerprint(a) == model_fingerprint(b)
    b.weights[1] = 3.0
    assert model_fingerprint(a) != model_fingerprint(b)
    # Shared infrastructure is excluded: mutating it changes nothing.
    infra = {"rows": np.arange(5)}
    a.db = infra
    fp = model_fingerprint(a, shared=(infra,))
    infra["rows"] = np.arange(50)
    assert model_fingerprint(a, shared=(infra,)) == fp


def _steered_champion(db, native, seed=0):
    """The lifecycle scenario's deployable unit: the native planner steered
    by a fitted GBDT estimator, on the learned-optimizer surface."""
    from repro.cardest.querydriven import GBDTQueryEstimator
    from repro.engine import CardinalityExecutor
    from repro.sql import WorkloadGenerator

    queries = WorkloadGenerator(db, seed=seed + 1).workload(
        30, 1, 2, require_predicate=True
    )
    executor = CardinalityExecutor(db)
    cards = np.array([float(executor.cardinality(q)) for q in queries])
    estimator = GBDTQueryEstimator(db, seed=seed).fit(queries, cards)
    return PlannerModel(native.with_estimator(estimator), name="steered"), queries


def test_planner_model_fingerprint_is_its_estimators_content(stats_db):
    from repro.optimizer import Optimizer

    native = Optimizer(stats_db)
    shared = (stats_db, native, native.stats, native.cache)
    a, queries = _steered_champion(stats_db, native)
    b, _ = _steered_champion(stats_db, native)
    # The estimator is the optimizer's, not a second reference to keep in step.
    assert a.estimator is a.optimizer.estimator is a.optimizer.coster.estimator
    with pytest.raises(AttributeError):
        a.estimator = b.estimator
    assert a.estimator is not b.estimator
    fp = model_fingerprint(a, shared=shared)
    assert fp == model_fingerprint(b, shared=shared)  # equal content, equal id
    # Stateless on the serving path: planning and feedback leave no trace.
    candidate = a.choose_plan(queries[0])
    assert candidate.source == "steered"
    a.record_feedback(queries[0], candidate, 1.0)
    assert model_fingerprint(a, shared=shared) == fp
    # What it learned is in the fingerprint: refit b and the ids part.
    b.estimator.fit(queries[:20], np.ones(20))
    assert model_fingerprint(b, shared=shared) != fp


def test_a_join_edge_unseen_in_training_leaves_the_fingerprint_alone():
    """The featurizer's join index is whole from construction: serving a
    query over an edge the training never joined changes nothing."""
    from repro.cardest.querydriven import GBDTQueryEstimator
    from repro.engine import CardinalityExecutor, ExecutionSimulator
    from repro.optimizer import Optimizer
    from repro.sql import WorkloadGenerator

    db = make_stats_lite(scale=0.12, seed=0)
    native = Optimizer(db)
    simulator, executor = ExecutionSimulator(db), CardinalityExecutor(db)
    shared = (db, native, simulator, executor, native.stats, native.cache)
    workload = WorkloadGenerator(db, seed=5).workload(120, 2, 3)
    unseen = workload[0].joins[0]
    train = [q for q in workload if unseen not in q.joins]
    over_unseen = [q for q in workload if unseen in q.joins]
    assert train and over_unseen
    cards = np.array([float(executor.cardinality(q)) for q in train])
    estimator = GBDTQueryEstimator(db, seed=0).fit(train, cards)
    model = PlannerModel(native.with_estimator(estimator), name="steered")
    telemetry = TelemetryBus()
    registry = ModelRegistry(shared=shared, telemetry=telemetry)
    version = registry.register(model)
    model.choose_plan(over_unseen[0])
    assert registry.verify(version.version_id)
    gate = EvalGate(
        over_unseen[:4], simulator=simulator, executor=executor, telemetry=telemetry, shared=shared
    )
    gate._measured(model, version.fingerprint)
    assert version.fingerprint in gate._memo  # measured once, memoized
    assert registry.verify(version.version_id)


def test_fingerprint_sees_the_last_tree_of_a_large_ensemble(monkeypatch):
    """A digest that ran out of steps part-way through an ensemble was equal
    for models differing only in a late tree.  (The walk budget is scaled
    down with the model: 60 trees against 2,000 steps stands in for 700
    trees against 200,000.)"""
    from repro.lifecycle import registry
    from repro.ml.gbdt import GradientBoostedTrees

    monkeypatch.setattr(registry, "_MAX_NODES", 2_000)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(200, 4))
    y = x[:, 0] * 2 + np.sin(3 * x[:, 1]) + rng.normal(scale=0.1, size=200)
    a = GradientBoostedTrees(n_estimators=60, max_depth=4, seed=0).fit(x, y)
    b = copy.deepcopy(a)
    assert model_fingerprint(a) == model_fingerprint(b)
    b.value_[-1] += 1.0  # a leaf of the last tree
    assert not np.array_equal(a.predict(x), b.predict(x))
    assert model_fingerprint(a) != model_fingerprint(b)


def test_fingerprint_that_cannot_cover_the_model_raises(monkeypatch):
    from repro.lifecycle import registry

    monkeypatch.setattr(registry, "_MAX_NODES", 50)
    model = _ToyModel([1.0])
    model.history = [[float(i)] for i in range(40)]  # 80+ steps of plain objects
    with pytest.raises(ConfigError, match="_ToyModel"):
        model_fingerprint(model)
    with pytest.raises(ConfigError, match="_ToyModel"):
        ModelRegistry(telemetry=TelemetryBus()).register(model)
    model.history = np.arange(40.0)  # the same content as one array: 3 steps
    assert model_fingerprint(model)


# Four kinds of state the walk used to hash as a bare type name (or, past the
# depth cap, as a marker): a change to any of them left the digest unchanged.


def test_fingerprint_sees_a_generator_advance():
    model = _ToyModel([1.0])
    model.rng = np.random.default_rng(0)
    fp = model_fingerprint(model)
    assert model_fingerprint(copy.deepcopy(model)) == fp
    model.rng.random()
    assert model_fingerprint(model) != fp


def test_fingerprint_sees_a_deque_append_and_its_maxlen():
    from collections import deque

    model = _ToyModel([1.0])
    model.window = deque([1.0, 2.0], maxlen=4)
    fp = model_fingerprint(model)
    model.window.append(3.0)
    assert model_fingerprint(model) != fp
    model.window.pop()
    assert model_fingerprint(model) == fp
    model.window = deque([1.0, 2.0], maxlen=5)
    assert model_fingerprint(model) != fp


class _Slotted:
    __slots__ = ("weight", "__private")

    def __init__(self, weight, private):
        self.weight = weight
        self.__private = private


class _SlottedChild(_Slotted):
    __slots__ = "bias"

    def __init__(self, weight, private, bias):
        super().__init__(weight, private)
        self.bias = bias


def test_fingerprint_sees_slots_along_the_mro():
    model = _SlottedChild(1.0, 2.0, 3.0)
    fp = model_fingerprint(model)
    assert model_fingerprint(_SlottedChild(1.0, 2.0, 3.0)) == fp
    for changed in (
        _SlottedChild(9.0, 2.0, 3.0),  # a base-class slot
        _SlottedChild(1.0, 9.0, 3.0),  # a name-mangled one
        _SlottedChild(1.0, 2.0, 9.0),  # the subclass's own
    ):
        assert model_fingerprint(changed) != fp
    model.weight = 9.0
    assert model_fingerprint(model) != fp


def test_fingerprint_past_the_depth_cap_raises():
    from repro.lifecycle import registry

    def nested(levels, leaf):
        value = leaf
        for _ in range(levels):
            value = [value]
        return value

    model = _ToyModel([1.0])
    model.deep = nested(registry._MAX_DEPTH - 1, 1.0)  # the leaf at depth _MAX_DEPTH
    fp = model_fingerprint(model)
    model.deep = nested(registry._MAX_DEPTH - 1, 2.0)
    assert model_fingerprint(model) != fp
    model.deep = nested(registry._MAX_DEPTH, 1.0)  # one level past it
    with pytest.raises(ConfigError, match="deeper than"):
        model_fingerprint(model)
    with pytest.raises(ConfigError, match="_ToyModel"):
        ModelRegistry(telemetry=TelemetryBus()).register(model)


@pytest.fixture(scope="module")
def trained_bao():
    """A Bao whose risk model is trained, so ``choose_plan`` Thompson-samples
    a member (a draw from its Generator), on its own small database."""
    from repro.engine import ExecutionSimulator
    from repro.optimizer import Optimizer
    from repro.sql import WorkloadGenerator

    db = make_stats_lite(scale=0.12, seed=1)
    native = Optimizer(db)
    simulator = ExecutionSimulator(db)
    bao = BaoOptimizer(native, seed=0)
    queries = WorkloadGenerator(db, seed=3).workload(24, 1, 2, require_predicate=True)
    for q in queries[:20]:
        candidate = bao.choose_plan(q)
        bao.record_feedback(q, candidate, simulator.execute(candidate.plan).latency_ms)
    bao.retrain()
    shared = (db, native, simulator, native.stats, native.cache)
    return bao, queries[20:], simulator, shared


def test_bao_fingerprint_sees_feedback_and_thompson_sampling(trained_bao):
    bao, queries, simulator, shared = trained_bao
    bao = clone_model(bao, shared=shared)
    fp = model_fingerprint(bao, shared=shared)
    candidate = bao.choose_plan(queries[0])  # draws an ensemble member
    after_choice = model_fingerprint(bao, shared=shared)
    assert after_choice != fp
    bao.record_feedback(queries[0], candidate, 1.0)  # appends to both windows
    assert model_fingerprint(bao, shared=shared) not in (fp, after_choice)


def test_registry_export_is_deterministic():
    def build():
        r = ModelRegistry(telemetry=TelemetryBus())
        v0 = r.register(_ToyModel([1.0]), trigger="initial")
        r.record_stage(v0.version_id, "live", reason="initial")
        r.register(_ToyModel([2.0]), parent=v0.version_id, trigger="retrain:x")
        return r.to_json()

    assert build() == build()
    assert json.loads(build())["champion"]


# -- retrainable protocol (satellite a) ------------------------------------------


def test_retrainable_protocol_covers_risk_models(stats_db):
    from repro.optimizer import Optimizer

    native = Optimizer(stats_db)
    # Non-data protocol: issubclass checks the surface without constructing.
    assert issubclass(TreeConvLatencyModel, Retrainable)
    assert issubclass(PairwisePlanComparator, Retrainable)
    assert issubclass(EnsembleLatencyModel, Retrainable)
    assert isinstance(BaoOptimizer(native, seed=0), Retrainable)

    class NotRetrainable:
        pass

    assert not isinstance(NotRetrainable(), Retrainable)


# -- triggers & scheduler (tentpole) ---------------------------------------------


def test_cadence_trigger_fires_on_query_interval():
    trig = CadenceTrigger(every_queries=10)
    ctx = SchedulerContext()
    ctx.queries = 9
    assert not trig.check(ctx).fired
    ctx.queries = 10
    d = trig.check(ctx)
    assert d.fired and d.action == "fine_tune"
    ctx.queries = 15
    assert not trig.check(ctx).fired  # re-armed from the last firing


def test_qerror_trigger_is_relative_to_its_own_baseline():
    trig = QErrorTrigger(window=8, min_samples=4)
    ctx = SchedulerContext()
    for _ in range(4):
        trig.observe(10.0, 5.0)  # q-error 2.0
    assert not trig.check(ctx).fired  # captures baseline ~2.0
    assert trig.baseline == pytest.approx(2.0)
    for _ in range(8):
        trig.observe(100.0, 5.0)  # q-error 20.0 -> 10x the baseline
    d = trig.check(ctx)
    assert d.fired and d.action == "retrain"
    trig.reset(ctx)
    assert trig.baseline is None and trig.current() == 1.0


@pytest.mark.parametrize(
    "config, message",
    [
        (dict(window=0, min_samples=1), "window"),
        (dict(window=8, min_samples=9), "min_samples"),
        (dict(window=8, min_samples=0), "min_samples"),
    ],
    ids=["empty-window", "never-fills", "no-samples"],
)
def test_qerror_trigger_rejects_a_configuration_it_cannot_honour(config, message):
    with pytest.raises(ConfigError, match=message):
        QErrorTrigger(**config)


def test_qerror_trigger_accepts_the_boundaries():
    QErrorTrigger(window=1, min_samples=1)
    QErrorTrigger(window=8, min_samples=8)


#: q-errors as ``observe(e, 1.0)`` computes them: ``e`` itself
_ERRORS = st.one_of(
    st.sampled_from([1.0, 1.0, 2.0, 3.5]),  # ties
    st.floats(1.0, 1e12),
)


@st.composite
def _trigger_cases(draw):
    """``(window, quantile, stream)``: windows of 1-128 (small ones often),
    streams up to three windows long with resets (``None``) or all 1.0, and
    quantiles 0, 1 and 0.5, any float in [0, 1], and ones where ``(n - 1) *
    q`` of a full window is a whole number or has a fraction of one half."""
    window = draw(st.one_of(st.integers(1, 8), st.integers(1, 128)))
    n = max(window - 1, 1)
    quantile = draw(
        st.one_of(
            st.sampled_from([0.0, 1.0, 0.5, 0.9]),
            st.floats(0.0, 1.0),
            st.integers(0, n).map(lambda j: j / n),
            st.integers(0, n - 1).map(lambda j: (j + 0.5) / n),
        )
    )
    length = draw(st.integers(0, 3 * window + 4))
    events = st.just(1.0) if draw(st.booleans()) else st.one_of(_ERRORS, st.just(None))
    stream = draw(st.lists(events, min_size=length, max_size=length))
    return window, quantile, stream


@given(case=_trigger_cases())
@example(case=(2, 0.5, [25.276319267505105, 58.86394608488796]))
@settings(max_examples=200, deadline=None)
def test_qerror_trigger_quantile_equals_numpys(case):
    """After every ``observe`` and ``reset``, ``current()`` is the float
    ``np.quantile`` returns over the newest ``window`` errors at 0.9, and
    its arithmetic, ``linear_quantile``, is numpy's at any ``q``."""
    window, q, stream = case
    trig = QErrorTrigger(window=window, min_samples=1)
    newest: list[float] = []
    assert trig.current() == 1.0
    for error in stream:
        if error is None:
            trig.reset(SchedulerContext())
            newest.clear()
        else:
            trig.observe(error, 1.0)
            newest = (newest + [error])[-window:]
        expected = float(np.quantile(newest, 0.9)) if newest else 1.0
        assert trig.current() == expected, newest
        if newest:
            assert linear_quantile(sorted(newest), q) == float(np.quantile(newest, q)), (newest, q)


def test_qerror_trigger_fires_where_numpys_quantile_does():
    """The firing decisions and reason strings over a q-error stream equal
    those of a trigger reading ``np.quantile`` off its newest errors."""
    rng = np.random.default_rng(0)
    errors = np.exp(np.abs(rng.normal(0.0, 1.0, 600)) + np.repeat([0.0, 2.5, 0.5], 200))
    trig = QErrorTrigger(window=48, min_samples=24)
    ctx = SchedulerContext()
    newest: list[float] = []
    baseline = None
    fired = 0
    for error in errors.tolist():
        trig.observe(error, 1.0)
        newest = (newest + [error])[-48:]
        decision = trig.check(ctx)
        if len(newest) < 24:
            assert decision.reason == "qerror:warming"
            continue
        q = float(np.quantile(newest, 0.9))
        if baseline is None:
            baseline = q
            assert decision.reason == f"qerror_baseline={q:.1f}"
        elif q >= baseline * 3.0:
            assert decision.fired
            assert decision.reason == f"qerror_q0.9={q:.1f}(base={baseline:.1f})"
            trig.reset(ctx)
            newest, baseline, fired = [], None, fired + 1
        else:
            assert decision.reason == f"qerror_q0.9={q:.1f}"
    assert fired >= 1


class _FakeDetector:
    def __init__(self, reports):
        self.reports = reports
        self.checks = 0

    def check(self):
        self.checks += 1
        return self.reports


def test_drift_trigger_triage_escalates_to_retrain():
    fine = DriftReport("users", True, 5.0, 0.01, "fine_tune")
    big = DriftReport("posts", True, 9.0, 0.2, "retrain")
    clean = DriftReport("votes", False, 0.5, 0.0, "none")
    store = ExperienceStore(capacity=4, seed=0)
    trig = DriftTrigger(_FakeDetector([fine, clean]), check_every=5, store=store)
    ctx = SchedulerContext()
    ctx.queries = 4
    assert not trig.check(ctx).fired  # interval not reached: no check ran
    ctx.queries = 5
    d = trig.check(ctx)
    assert d.fired and d.action == "fine_tune" and "users" in d.reason
    assert store.drift_tag  # drift episodes tag subsequent experience
    trig2 = DriftTrigger(_FakeDetector([fine, big]), check_every=1, store=store)
    ctx.queries = 6
    assert trig2.check(ctx).action == "retrain"  # any retrain report escalates


class _PassingGate:
    """A gate every challenger passes: a toy model plans nothing an
    :class:`EvalGate` could measure."""

    def evaluate(self, champion, challenger, *, challenger_fingerprint):
        return GateReport(True, (), {}, {})


class _Deployment:
    """What the scheduler reads of a deployment: the registry version it
    serves, which each deploy replaces."""

    def __init__(self, version_id):
        self.model_version = version_id
        self.deployed = []

    def deploy(self, model, *, version, reason):
        self.model_version = version
        self.deployed.append(version)


def _toy_scheduler(registry, store, retrainer, **kw):
    """A scheduler over toy models: a passing gate, a recording deployment
    serving the registry's champion."""
    return RetrainingScheduler(
        registry,
        store,
        retrainer,
        gate=_PassingGate(),
        deployment=_Deployment(registry.champion_id),
        telemetry=TelemetryBus(),
        **kw,
    )


def test_scheduler_composes_triggers_with_cooldown():
    registry = ModelRegistry(telemetry=TelemetryBus())
    store = ExperienceStore(capacity=16, seed=0)
    v0 = registry.register(_ToyModel([1.0]), trigger="initial")
    registry.record_stage(v0.version_id, "live", reason="initial")
    sched = _toy_scheduler(
        registry,
        store,
        lambda champion, store, action: _refit(clone_model(champion)),
        triggers=[CadenceTrigger(every_queries=10)],
        cooldown_queries=25,
    )
    outcomes = [sched.step(1.0) for _ in range(40)]
    fired = [o for o in outcomes if o is not None]
    # Cadence alone would fire at 10/20/30/40; the cooldown holds triggers
    # unchecked until query 35 (10 + 25), where the cadence is overdue.
    assert [o.at_query for o in fired] == [10, 35]
    assert all(o.gate_passed for o in fired)
    assert sched.deployment.deployed == [o.version_id for o in fired]
    # Lineage: each challenger's parent is the version deployed when it
    # was cloned.
    assert [o.parent for o in fired] == [v0.version_id, fired[0].version_id]
    assert len(registry) == 3
    assert sched.stats()["retrains"] == 2


def test_scheduler_policy_estimates_only_for_its_triggers():
    """The per-query estimate feeds the triggers; with none (the frozen
    arm) the scheduler still keeps time but never asks for it."""
    from types import SimpleNamespace

    class CountingEstimator(CardinalityEstimator):
        calls = 0

        def estimate(self, query):
            self.calls += 1
            return 7.0

    estimator = CountingEstimator()
    # a planner that does not plan through this estimator: nothing to peek
    planner = SimpleNamespace(coster=SimpleNamespace(estimator=None))
    deployment = SimpleNamespace(learned=SimpleNamespace(estimator=estimator, optimizer=planner))
    decision = _decision(None)
    retrainer = lambda champion, store, action: _refit(clone_model(champion))  # noqa: E731
    frozen = _toy_scheduler(ModelRegistry(telemetry=TelemetryBus()), ExperienceStore(8), retrainer)
    frozen.on_decision(deployment, decision)
    assert estimator.calls == 0 and frozen.ctx.queries == 1
    watching = _toy_scheduler(
        ModelRegistry(telemetry=TelemetryBus()), ExperienceStore(8), retrainer,
        triggers=[QErrorTrigger()],
    )
    watching.on_decision(deployment, decision)
    assert estimator.calls == 1 and watching.ctx.queries == 1
    assert watching.ctx.virtual_ms == decision.latency_ms


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_qerror_trigger_reads_the_estimate_the_plan_was_priced_with(seed, monkeypatch):
    """Each estimate the trigger observes is ``==`` to asking the deployed
    estimator again; most are peeked from the planner's cardinality cache."""
    scenario = _tiny_scenario(seed=seed, cadence_queries=20)
    scheduler, cache = scenario.scheduler, scenario.native.cache
    on_decision, observe = scheduler.on_decision, scheduler.observe_qerror
    peek = cache.peek
    observed, expected, peeked = [], [], []

    def checked_on_decision(deployment, decision):
        expected.append(float(deployment.learned.estimator.estimate(decision.query)))
        on_decision(deployment, decision)

    def counted_peek(tag, query):
        value = peek(tag, query)
        peeked.append(value is not None)
        return value

    monkeypatch.setattr(scheduler, "on_decision", checked_on_decision)
    monkeypatch.setattr(
        scheduler, "observe_qerror", lambda e, t: (observed.append(e), observe(e, t))
    )
    monkeypatch.setattr(cache, "peek", counted_peek)
    scenario.run()
    assert len(observed) == len(expected) == scenario.n_requests
    assert observed == expected
    assert len(peeked) == scenario.n_requests and sum(peeked) > len(peeked) // 2


def test_gate_qerrors_batched_equal_the_scalar_loop():
    from repro.cardest.base import q_error

    scenario = _tiny_scenario(seed=1, cadence_queries=20)
    scenario.run()
    gate = scenario.gate
    for version in scenario.registry.versions():
        estimator = scenario.registry.model(version.version_id).estimator
        scalar = np.array(
            [q_error(estimator.estimate(q), gate.executor.cardinality(q)) for q in gate.queries]
        )
        assert gate._qerrors(scenario.registry.model(version.version_id)).tobytes() == scalar.tobytes()


def test_scheduler_rejects_mutating_retrainer():
    registry = ModelRegistry(telemetry=TelemetryBus())
    store = ExperienceStore(capacity=4, seed=0)
    v0 = registry.register(_ToyModel([1.0]), trigger="initial")
    registry.record_stage(v0.version_id, "live", reason="initial")
    sched = _toy_scheduler(
        registry,
        store,
        lambda champion, s, action: champion,  # returns the champion itself
        triggers=[CadenceTrigger(every_queries=1)],
        cooldown_queries=1,
    )
    with pytest.raises(ConfigError):
        sched.step(1.0)


def test_clone_model_shares_infrastructure():
    infra = {"db": np.arange(10)}
    model = _ToyModel([1.0])
    model.db = infra
    clone = clone_model(model, shared=(infra,))
    assert clone is not model and clone.weights is not model.weights
    assert clone.db is infra  # shared, not copied
    clone.retrain()
    assert model.weights[0] == 1.0  # champion untouched


def test_clone_of_a_planner_model_owns_its_estimator(stats_db):
    from repro.optimizer import Optimizer

    native = Optimizer(stats_db)
    shared = (stats_db, native, native.stats, native.cache)
    champion, queries = _steered_champion(stats_db, native)
    fp = model_fingerprint(champion, shared=shared)
    clone = clone_model(champion, shared=shared)
    assert model_fingerprint(clone, shared=shared) == fp
    # Infrastructure is referenced, the learned part is copied -- and the
    # clone's planner costs with the clone's estimator, not the champion's.
    assert clone.optimizer is not champion.optimizer
    assert clone.optimizer.db is stats_db
    assert clone.optimizer.stats is native.stats
    assert clone.optimizer.cache is native.cache
    assert clone.estimator is not champion.estimator
    assert clone.estimator is clone.optimizer.coster.estimator
    # Retraining the clone (what the Warper retrainer does) leaves the
    # registered champion bit-for-bit what it was.
    before = champion.estimator.estimate(queries[0])
    clone.estimator.fit(queries[:20], np.ones(20))
    assert model_fingerprint(clone, shared=shared) != fp
    assert model_fingerprint(champion, shared=shared) == fp
    assert champion.estimator.estimate(queries[0]) == before


# -- gates (tentpole): pass -> SHADOW, fail -> never deployed --------------------


@pytest.fixture(scope="module")
def gate_stack():
    """Small full stack for gate/deployment tests (module-local, mutable)."""
    from repro.engine import CardinalityExecutor, ExecutionSimulator
    from repro.optimizer import Optimizer
    from repro.sql import WorkloadGenerator

    db = make_stats_lite(scale=0.12, seed=0)
    native = Optimizer(db)
    simulator = ExecutionSimulator(db)
    executor = CardinalityExecutor(db)
    holdout = WorkloadGenerator(db, seed=9).workload(12, 1, 2, require_predicate=True)
    return db, native, simulator, executor, holdout


def test_gate_passes_equivalent_challenger_into_shadow(gate_stack):
    db, native, simulator, executor, holdout = gate_stack
    shared = (db, native, simulator, executor, native.stats, native.cache)
    telemetry = TelemetryBus()
    registry = ModelRegistry(shared=shared, telemetry=telemetry)
    store = ExperienceStore(capacity=64, seed=0)
    champion, _ = _steered_champion(db, native)
    v0 = registry.register(champion, trigger="initial")
    registry.record_stage(v0.version_id, "live", reason="initial")
    gate = EvalGate(
        holdout, simulator=simulator, executor=executor, telemetry=telemetry, shared=shared
    )
    deployment = DeploymentManager(
        champion,
        native,
        simulator,
        telemetry=telemetry,
        stage=Stage.LIVE,
        model_version=v0.version_id,
        policies=[registry],
    )
    sched = RetrainingScheduler(
        registry,
        store,
        lambda champion, s, action: clone_model(champion, shared=shared),
        gate=gate,
        triggers=[CadenceTrigger(every_queries=1)],
        deployment=deployment,
        telemetry=telemetry,
    )
    outcome = sched.step()
    assert outcome.gate_passed
    # The challenger entered at SHADOW -- never straight to LIVE.
    assert deployment.stage is Stage.SHADOW
    assert deployment.learned is not champion
    assert deployment.model_version == outcome.version_id
    report = registry.gate_report(outcome.version_id)
    assert report["passed"] is True
    assert [s["stage"] for s in registry.stage_history(outcome.version_id)] == [
        "shadow"
    ]
    assert registry.champion_id == v0.version_id  # not champion until LIVE


def _slow(challenger, native):
    """``challenger`` made to ship nested loops over sequential scans, far
    slower than the champion's native plans on the held-out joins."""
    slow = HintSet(enable_hash_join=False, enable_merge_join=False, enable_index_scan=False)
    challenger.choose_plan = lambda q: CandidatePlan(native.plan(q, slow), "slow")
    return challenger


def test_gate_failure_never_reaches_deployment(gate_stack):
    db, native, simulator, executor, holdout = gate_stack
    shared = (db, native, simulator, executor, native.stats, native.cache)
    telemetry = TelemetryBus()
    registry = ModelRegistry(shared=shared, telemetry=telemetry)
    store = ExperienceStore(capacity=64, seed=0)
    champion, _ = _steered_champion(db, native)
    v0 = registry.register(champion, trigger="initial")
    registry.record_stage(v0.version_id, "live", reason="initial")
    gate = EvalGate(
        holdout, simulator=simulator, executor=executor, telemetry=telemetry, shared=shared
    )
    deployment = DeploymentManager(
        champion,
        native,
        simulator,
        telemetry=telemetry,
        stage=Stage.LIVE,
        model_version=v0.version_id,
        policies=[registry],
    )
    sched = RetrainingScheduler(
        registry,
        store,
        lambda champion, s, action: _slow(clone_model(champion, shared=shared), native),
        gate=gate,
        triggers=[CadenceTrigger(every_queries=1)],
        deployment=deployment,
        telemetry=telemetry,
    )
    outcome = sched.step()
    assert not outcome.gate_passed
    # Hard constraint: the failing challenger never touched the deployment.
    assert deployment.learned is champion
    assert deployment.model_version == v0.version_id
    assert deployment.stage is Stage.LIVE
    report = registry.gate_report(outcome.version_id)
    assert report["passed"] is False and report["reasons"]
    assert sched.stats()["gate_failures"] == 1
    with pytest.raises(ConfigError):
        EvalGate([], simulator=simulator, executor=executor, telemetry=telemetry)


# -- the gate's metric memo ---------------------------------------------------------


class _MemolessGate(EvalGate):
    """The gate as it was before the memo: every evaluation measures both."""

    def _measured(self, model, fingerprint=None):
        return self._metrics(model)


def _memoless_twin(gate) -> _MemolessGate:
    return _MemolessGate(
        gate.queries,
        simulator=gate.simulator,
        executor=gate.executor,
        telemetry=gate.telemetry,
        shared=gate.shared,
    )


def _judge(gate, champion, challenger):
    """``gate.evaluate`` as the scheduler calls it: with the challenger's
    digest under the gate's shared objects."""
    fingerprint = model_fingerprint(challenger, shared=gate.shared)
    return gate.evaluate(champion, challenger, challenger_fingerprint=fingerprint)


def _count_passes(gate, monkeypatch) -> list:
    """Every model the gate really measures (a memo hit is not a pass)."""
    measured = []
    metrics = gate._metrics

    def counted(model):
        measured.append(model)
        return metrics(model)

    monkeypatch.setattr(gate, "_metrics", counted)
    return measured


def _memo_stack(seed=0):
    """A throwaway database (the memo test drifts it), a steered champion
    and a gate with the registry's ``shared``."""
    from repro.engine import CardinalityExecutor, ExecutionSimulator
    from repro.optimizer import Optimizer
    from repro.sql import WorkloadGenerator

    db = make_stats_lite(scale=0.12, seed=seed)
    native = Optimizer(db)
    simulator = ExecutionSimulator(db)
    executor = CardinalityExecutor(db)
    shared = (db, native, simulator, executor, native.stats, native.cache)
    champion, queries = _steered_champion(db, native, seed=seed)
    holdout = WorkloadGenerator(db, seed=9).workload(12, 1, 2, require_predicate=True)
    gate = EvalGate(
        holdout, simulator=simulator, executor=executor, telemetry=TelemetryBus(), shared=shared
    )
    return gate, champion, queries, shared, native


def test_gate_memo_answers_an_unchanged_model_and_misses_a_refit_or_a_drift(monkeypatch):
    gate, champion, queries, shared, native = _memo_stack()
    # Measuring the champion leaves its content as it was (the featurizer's
    # join index is whole from construction), so its first pass is kept.
    passes = _count_passes(gate, monkeypatch)
    _judge(gate, champion, champion)
    assert passes == [champion]
    clone = clone_model(champion, shared=shared)
    first = _judge(gate, champion, clone)
    assert passes == [champion]  # one content, one data version
    assert first.passed
    assert first.challenger == first.champion | {"regression_rate": 0.0}
    refit = clone_model(champion, shared=shared)
    refit.estimator.fit(queries[:20], np.ones(20))
    second = _judge(gate, champion, refit)
    assert passes[1:] == [refit]  # the champion from the memo, not the refit
    assert second.champion == first.champion
    apply_drift(gate.simulator.db, fraction=0.5, seed=0)
    native.stats.refresh(gate.simulator.db)
    gate.executor.clear_cache()
    third = _judge(gate, champion, refit)
    assert passes[2:] == [champion, refit]  # new data: both again
    assert third.champion != first.champion
    assert _judge(_memoless_twin(gate), champion, refit) == third


def test_gate_memo_caches_metrics_not_verdicts(monkeypatch):
    gate, champion, _, shared, _ = _memo_stack()
    _judge(gate, champion, champion)
    clone = clone_model(champion, shared=shared)
    assert _judge(gate, champion, clone).passed
    passes = _count_passes(gate, monkeypatch)
    gate.max_p50_ratio = 0.0  # what p4's gate-safety arm does to a live gate
    report = _judge(gate, champion, clone)
    assert passes == []  # both answered from the memo ...
    assert not report.passed and report.reasons[0].startswith("p50 latency")  # ... and judged anew


class _DrawingPlanner(PlannerModel):
    """A steered planner whose ``choose_plan`` draws from its Generator, as
    Bao's Thompson sampling does."""

    def __init__(self, optimizer):
        super().__init__(optimizer, name="drawing")
        self.rng = np.random.default_rng(0)

    def choose_plan(self, query):
        self.rng.random()
        return super().choose_plan(query)


def test_gate_memo_never_answers_a_model_that_draws_while_planning(monkeypatch):
    gate, steered, _, shared, _ = _memo_stack()
    drawing = _DrawingPlanner(steered.optimizer)
    passes = _count_passes(gate, monkeypatch)
    champion = clone_model(drawing, shared=shared)
    challenger = clone_model(drawing, shared=shared)
    for _ in range(2):
        _judge(gate, champion, challenger)
    # Each pass moved each Generator, so no pass was ever stored.
    assert passes == [champion, challenger] * 2

    def scheduled(gate_class):
        telemetry = TelemetryBus()
        registry = ModelRegistry(shared=shared, telemetry=telemetry)
        v0 = registry.register(clone_model(drawing, shared=shared), trigger="initial")
        registry.record_stage(v0.version_id, "live", reason="initial")
        sched = RetrainingScheduler(
            registry,
            ExperienceStore(capacity=8, seed=0),
            lambda current, store, action: clone_model(current, shared=shared),
            triggers=[CadenceTrigger(every_queries=1)],
            cooldown_queries=1,
            gate=gate_class(
                gate.queries,
                simulator=gate.simulator,
                executor=gate.executor,
                telemetry=telemetry,
                shared=shared,
            ),
            deployment=_Deployment(v0.version_id),
            telemetry=telemetry,
        )
        for _ in range(3):
            sched.step(1.0)
        return sched.outcomes, registry.to_json()

    assert scheduled(EvalGate) == scheduled(_MemolessGate)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gate_reports_equal_a_memoless_gates_over_the_drift_scenario(seed, monkeypatch):
    scenario = _tiny_scenario(seed=seed, cadence_queries=20)
    gate = scenario.gate
    passes = _count_passes(gate, monkeypatch)
    reference = _memoless_twin(gate)
    evaluate = gate.evaluate
    compared = []

    def checked(champion, challenger, **kwargs):
        expected = reference.evaluate(champion, challenger, **kwargs)
        report = evaluate(champion, challenger, **kwargs)
        assert report == expected
        compared.append(report)
        return report

    monkeypatch.setattr(gate, "evaluate", checked)
    scenario.run()
    assert len(compared) == scenario.scheduler.stats()["retrains"] >= 2
    assert len(passes) < 2 * len(compared)  # the memo answered some passes


# -- experience wiring (tentpole) ------------------------------------------------


def test_optimization_loop_feeds_experience(stats_db, stats_simulator):
    from repro.optimizer import Optimizer

    native = Optimizer(stats_db)
    store = _KindLog(capacity=32, seed=0)
    loop = OptimizationLoop(
        BaoOptimizer(native, seed=0),
        stats_simulator,
        native,
        policies=[store],
    )
    from repro.sql import WorkloadGenerator

    queries = WorkloadGenerator(stats_db, seed=13).workload(
        5, 1, 2, require_predicate=True
    )
    results = loop.run(queries)
    assert store.kinds == ["episode"] * 5
    episodes = list(store._records.values())
    assert len(episodes) == len(store) and all(r.latency_ms is not None for r in episodes)
    # An episode carries the exact count its execution returned.
    assert [r.true_cardinality for r in episodes] == [float(d.cardinality) for d in results]
    assert store.stats()["ingested"] == 5


def test_deployment_manager_feeds_experience(stats_db, stats_simulator):
    from repro.optimizer import Optimizer
    from repro.sql import WorkloadGenerator

    native = Optimizer(stats_db)
    store = _KindLog(capacity=32, seed=0)
    deployment = DeploymentManager(
        BaoOptimizer(native, seed=0),
        native,
        stats_simulator,
        stage=Stage.LIVE,
        policies=[store],
    )
    queries = WorkloadGenerator(stats_db, seed=14).workload(
        5, 1, 2, require_predicate=True
    )
    for q in queries:
        deployment.serve(q)
    assert store.kinds == ["serve"] * 5
    serves = list(store._records.values())
    assert len(serves) == len(store) and all(r.true_cardinality is not None for r in serves)
    # The store's counters are exported as a telemetry gauge.
    snap = deployment.telemetry.snapshot()
    assert snap["gauges"]["experience_store"]["records"] == len(store)


# -- drift telemetry (satellite b) ----------------------------------------------


def test_drift_detector_emits_telemetry_events():
    db = make_stats_lite(scale=0.12, seed=0)
    bus = TelemetryBus()
    detector = DDUpDetector(db, seed=0, telemetry=bus)
    detector.check()  # clean: counters only
    apply_drift(db, fraction=0.5, seed=0)
    reports = detector.check()
    assert any(r.drifted for r in reports)
    snap = bus.snapshot()
    assert snap["counters"]["drift.checks"] == 2
    assert snap["counters"]["drift.detected"] >= 1
    events = [e for e in snap["events"] if e["kind"] == "drift_report"]
    assert events and all(e["drifted"] for e in events)
    assert {e["action"] for e in events} <= {"fine_tune", "retrain"}


# -- end to end (tentpole + satellite d) -----------------------------------------


def _tiny_scenario(seed=0, **kw):
    kw.setdefault("scale", 0.12)
    kw.setdefault("n_queries", 60)
    kw.setdefault("n_train", 40)
    # 20 holdout queries steady the gate's p50 ratio enough to deploy
    kw.setdefault("n_holdout", 20)
    kw.setdefault("n_sessions", 4)
    kw.setdefault("drift_check_every", 10)
    kw.setdefault("cooldown_queries", 15)
    return drift_recovery_scenario(seed=seed, **kw)


def test_e2e_drift_recovery_is_seed_reproducible():
    def run(seed):
        s = _tiny_scenario(seed=seed)
        s.run()
        return s

    a, b = run(5), run(5)
    assert a.registry.to_json() == b.registry.to_json()
    assert a.telemetry.to_json() == b.telemetry.to_json()
    assert a.store.snapshot_id() == b.store.snapshot_id()
    c = run(6)
    assert c.telemetry.to_json() != a.telemetry.to_json()
    # The loop actually closed: drift -> retrain -> gated deploy.
    assert a.scheduler.stats()["retrains"] >= 1
    assert a.scheduler.stats()["deploys"] >= 1
    assert all(a.registry.verify(v.version_id) for v in a.registry.versions())
    # Registered challengers carry full lineage back to the initial model.
    last = a.registry.versions()[-1]
    chain = a.registry.lineage(last.version_id)
    assert chain[0].trigger == "initial" and chain[-1] is last
    assert last.snapshot_id  # training-data snapshot recorded
    stats = lifecycle_stats(a)
    rendered = render_stats(stats, title="model lifecycle")
    assert "component" in rendered  # a dict of dicts: one row per (component, stat)
    assert "scheduler" in rendered and "registry" in rendered


def test_scheduler_as_policy_matches_scheduler_as_wrapper():
    """``policies=[store, registry]`` + ``add_policy(scheduler)`` is the
    loop the wrapper backend used to drive.  The wrapper's ``serve`` is
    kept here as the reference: serve, then observe the q-error, then
    step the scheduler, all outside the deployment."""
    as_policy, as_wrapper = _tiny_scenario(seed=5), _tiny_scenario(seed=5)
    assert as_policy.deployment.policies == [
        as_policy.store,
        as_policy.registry,
        as_policy.scheduler,
    ]
    deployment, scheduler = as_wrapper.deployment, as_wrapper.scheduler
    deployment.policies.remove(scheduler)
    serve = deployment.serve

    def serve_then_step(query):
        decision = serve(query)
        scheduler.observe_qerror(
            float(deployment.learned.estimator.estimate(query)),
            float(decision.cardinality),
        )
        scheduler.step(decision.latency_ms)
        return decision

    deployment.serve = serve_then_step
    as_policy.run()
    as_wrapper.run()
    # deploy() was re-entered from inside the policy loop at least once
    assert as_policy.scheduler.stats()["deploys"] >= 1
    assert as_policy.telemetry.to_json() == as_wrapper.telemetry.to_json()
    assert as_policy.registry.to_json() == as_wrapper.registry.to_json()


# ---------------------------------------------------------------------------
# cross-schema transfer fleet
# ---------------------------------------------------------------------------


def _tiny_fleet(seed=0, **kw):
    from repro.lifecycle import transfer_fleet_scenario

    kw.setdefault("n_schemas", 2)
    kw.setdefault("queries_per_tenant", 10)
    return transfer_fleet_scenario(seed=seed, **kw)


class TestTransferFleet:
    def test_fleet_serves_every_request_on_its_pinned_shard(self):
        fleet = _tiny_fleet()
        fleet.run()
        served = sum(r.n_served for r in fleet.reports)
        assert served == fleet.n_requests
        # one tenant per shard, no cross-schema misrouting
        assert fleet.fabric.router.unroutable == 0
        assert fleet.fabric.router.reroutes == 0
        per_tenant = fleet.n_requests // len(fleet.tenants)
        assert fleet.fabric.router.assignments == [per_tenant] * len(
            fleet.tenants
        )

    def test_fleet_schedule_interleaves_all_tenants(self):
        fleet = _tiny_fleet()
        # a request's session id is its tenant's registration index
        ids = fleet.fabric.tenants.registration_order()
        assert ids == [t.tenant_id for t in fleet.tenants]
        assert {ids[r.session_id] for r in fleet.schedule[:4]} == set(ids)
        arrivals = [r.arrival_ms for r in fleet.schedule]
        assert arrivals == sorted(arrivals)

    def test_frozen_fleet_never_retrains(self):
        fleet = _tiny_fleet(closed_loop=False)
        fleet.run()
        stats = fleet.retrain_stats()
        assert all(v["retrains"] == 0 for v in stats.values())
        assert all(v["deploys"] == 0 for v in stats.values())

    def test_same_seed_fleets_are_byte_identical(self):
        def run():
            fleet = _tiny_fleet(seed=4)
            fleet.run()
            return fleet

        a, b = run(), run()
        assert a.export_json(include_traces=True) == b.export_json(
            include_traces=True
        )
        assert a.fingerprints() == b.fingerprints()
        assert _tiny_fleet(seed=5).fingerprints() != a.fingerprints()

    def test_drift_event_lands_mid_stream(self):
        fleet = _tiny_fleet()
        fleet.run()
        snap = json.loads(fleet.export_json())
        drift_events = [
            e for e in snap["events"] if e["kind"] == "fleet_drift"
        ]
        assert len(drift_events) == 1
        assert drift_events[0]["n_schemas"] == len(fleet.tenants)
