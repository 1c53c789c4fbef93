"""A decision's node table against the per-node reference paths.

Hypothesis draws a generated query and a set of Bao's hint-set arms on the
stats and imdb fixtures; each decision's candidates then go through one
:class:`NodeTable`, and

- every table row is ``==`` :meth:`PlanFeaturizer.node_features` of its
  node, and every kept candidate tree ``array_equal`` to its plan
  featurized alone;
- every field of the decision's batch is ``array_equal`` to
  :meth:`PlanTreeBatch.from_trees` over the candidates' trees;
- all four scorers score ``==`` what they scored from per-candidate trees
  batched by ``from_trees``;
- a plan node's memoized signature equals a fresh rendering, survives
  pickle and deepcopy, and is invisible to ``==``, ``hash`` and a
  registered model's fingerprint.
"""

import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.costmodel import PlanFeaturizer
from repro.costmodel.features import NodeTable, plan_to_tree_arrays
from repro.e2e import BaoOptimizer
from repro.e2e import risk_models
from repro.e2e.exploration import HintSetExploration
from repro.e2e.risk_models import (
    EnsembleLatencyModel,
    PairwisePlanComparator,
    PlanValueModel,
    TreeConvLatencyModel,
)
from repro.engine.plans import JoinNode, ScanNode
from repro.lifecycle import ModelRegistry
from repro.ml.treeconv import PlanTreeBatch
from repro.optimizer import HintSet
from repro.serve.telemetry import TelemetryBus
from repro.sql import WorkloadGenerator

ARMS = HintSet.bao_arms()
FIXTURES = ["stats", "imdb"]
SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

decisions = st.tuples(
    st.integers(0, 10_000),  # generator seed
    st.integers(1, 5),  # tables
    st.lists(st.integers(0, len(ARMS) - 1), min_size=1, max_size=len(ARMS), unique=True),
)


@pytest.fixture(params=FIXTURES)
def optimizer(request, stats_optimizer, imdb_optimizer):
    return {"stats": stats_optimizer, "imdb": imdb_optimizer}[request.param]


def _candidates(optimizer, decision):
    seed, n_tables, arms = decision
    query = WorkloadGenerator(optimizer.db, seed=seed).workload(
        1, n_tables, n_tables, require_predicate=True
    )[0]
    return HintSetExploration(optimizer, [ARMS[i] for i in arms]).candidates(query)


def _same_tree(a, b) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def _render(node) -> str:
    """A plan node's signature, rendered afresh from its fields."""
    if isinstance(node, ScanNode):
        return f"{node.method.value}({node.table})"
    assert isinstance(node, JoinNode)
    return f"{node.method.value}({_render(node.left)},{_render(node.right)})"


@SETTINGS
@given(decision=decisions)
def test_rows_trees_and_batch_equal_the_references(optimizer, decision):
    featurizer = PlanFeaturizer(optimizer.db, coster=optimizer.coster)
    candidates = _candidates(optimizer, decision)
    table = NodeTable(featurizer, [c.plan for c in candidates])
    trees = [plan_to_tree_arrays(c.plan, featurizer, table=table) for c in candidates]
    features, rows = table.layout()[:2]
    distinct = {(c.plan.query, n) for c in candidates for n in c.plan.walk()}
    assert len(features) == len(distinct) == len(set(rows.tolist()))
    nodes = [(c.plan, n) for c in candidates for n in c.plan.walk()]
    for (plan, node), row in zip(nodes, rows):
        want = featurizer.node_features(plan, node)
        assert features[row].dtype == want.dtype and (features[row] == want).all()
    for c, tree in zip(candidates, trees):
        assert _same_tree(tree, plan_to_tree_arrays(c.plan, featurizer))
    batch, want = table.batch(), PlanTreeBatch.from_trees(trees)
    for field in dataclasses.fields(PlanTreeBatch):
        got, ref = getattr(batch, field.name), getattr(want, field.name)
        if ref is None:
            assert got is None
        else:
            assert got.dtype == ref.dtype and np.array_equal(got, ref)


def _scorers(featurizer):
    """The four scorers that read a decision's batch, at their seed weights."""
    thompson = TreeConvLatencyModel(featurizer, seed=3)
    mean = TreeConvLatencyModel(featurizer, thompson=False, seed=4)
    ensemble = EnsembleLatencyModel(featurizer, seed=5)
    pairwise = PairwisePlanComparator(featurizer, seed=6)
    value = PlanValueModel(featurizer, seed=7)
    for model in (thompson, mean, ensemble.inner, pairwise):
        model._trained = True
    value.trained = True
    return [thompson, mean, ensemble, pairwise, value]


def _per_candidate_trees(candidates, featurizer):
    """The decision path the table replaced: one tree per candidate,
    batched by ``PlanTreeBatch.from_trees`` inside ``predict``."""
    return [plan_to_tree_arrays(c.plan, featurizer) for c in candidates]


@SETTINGS
@given(decision=decisions)
def test_every_scorer_scores_what_per_candidate_trees_scored(
    optimizer, decision, monkeypatch
):
    featurizer = PlanFeaturizer(optimizer.db, coster=optimizer.coster)
    candidates = _candidates(optimizer, decision)
    for model in _scorers(featurizer):
        owner = model.inner if isinstance(model, EnsembleLatencyModel) else model
        rng = owner.__dict__.get("_rng")
        state = rng.bit_generator.state if rng is not None else None
        with monkeypatch.context() as patch:
            patch.setattr(risk_models, "_decision_batch", _per_candidate_trees)
            want = model.scores(candidates)
        if rng is not None:
            rng.bit_generator.state = state  # Thompson draws its member again
        got = model.scores(candidates)
        assert got == want


@SETTINGS
@given(decision=decisions)
def test_a_signature_memo_is_a_rendering_nothing_else_sees(optimizer, decision):
    candidates = _candidates(optimizer, decision)
    for node in (n for c in candidates for n in c.plan.walk()):
        fresh = dataclasses.replace(node)
        assert "_str" not in fresh.__dict__
        assert node.signature() == str(node) == _render(node)
        assert "_str" in node.__dict__
        assert fresh == node and hash(fresh) == hash(node)
        for twin in (pickle.loads(pickle.dumps(node)), copy.deepcopy(node)):
            assert twin == node and hash(twin) == hash(node)
            assert twin.signature() == _render(node)
    sigs = [c.plan.signature() for c in candidates]
    assert len(set(sigs)) == len(sigs)  # the dedup's key


def test_a_registered_model_verifies_after_its_signatures_render(stats_db, stats_optimizer):
    optimizer = stats_optimizer
    bao = BaoOptimizer(optimizer, seed=0)
    registry = ModelRegistry(
        shared=(stats_db, optimizer.stats, optimizer.cache), telemetry=TelemetryBus()
    )
    version = registry.register(bao)
    queries = WorkloadGenerator(stats_db, seed=17).workload(6, 2, 4, require_predicate=True)
    for q in queries:
        for c in bao.exploration.candidates(q):
            c.plan.signature()
        bao.choose_plan(q)
        assert registry.verify(version.version_id)
