"""Owed refits against the eager loop.

A ``TreeConvLatencyModel`` retrain records one owed fit per bootstrap
member and runs it when the member is next read.  Against the eager
reference (``tests/risk_models_reference.py``) on seeded streams, Bao
(Thompson sampling), the ``thompson=False`` mean, HyperQO's ensemble and
the PilotScope ``BaoDriver`` must make the same decisions, leave ``_rng``
in the same state after every decision and end with bit-equal weights once
``members()`` has forced what is owed.  A member owes at most one fit, and
cloning, forcing and fingerprinting see the owed fits.
"""

import copy

import numpy as np
import pytest

from repro.costmodel import PlanFeaturizer
from repro.e2e import EnsembleLatencyModel, HintSetExploration, TreeConvLatencyModel
from repro.lifecycle import clone_model, model_fingerprint
from repro.ml.treeconv import TreeConvNet
from repro.pilotscope import BaoDriver, PilotScopeConsole, SimulatedPostgreSQL
from repro.sql import WorkloadGenerator
from tests.risk_models_reference import (
    EagerEnsembleLatencyModel,
    EagerTreeConvLatencyModel,
)

EPOCHS = 3
EVERY = 25


@pytest.fixture(scope="module")
def featurizer(imdb_db, imdb_optimizer):
    return PlanFeaturizer(imdb_db, imdb_optimizer.estimator)


@pytest.fixture(scope="module")
def stream(imdb_db, imdb_optimizer, imdb_simulator):
    """``(candidates, latency of each)`` for 90 seeded queries."""
    explore = HintSetExploration(imdb_optimizer)
    out = []
    for q in WorkloadGenerator(imdb_db, seed=31).workload(90, 2, 4, require_predicate=True):
        cands = explore.candidates(q)
        out.append((cands, [imdb_simulator.execute(c.plan).latency_ms for c in cands]))
    return out


def _rng_state(model):
    return getattr(model, "inner", model)._rng.bit_generator.state


def _lockstep(lazy, eager, stream):
    """Serve ``stream`` through both models side by side: pick the argmin
    score, observe its latency, retrain every ``EVERY`` decisions.  Returns
    the number of retrains."""
    retrains = 0
    for k, (cands, lats) in enumerate(stream, 1):
        got, want = lazy.scores(cands), eager.scores(cands)
        assert np.array_equal(got, want), f"decision {k}"
        assert _rng_state(lazy) == _rng_state(eager), f"decision {k}"
        pick = int(np.argmin(got))
        lazy.observe(cands[pick], lats[pick])
        eager.observe(cands[pick], lats[pick])
        if k % EVERY == 0:
            lazy.retrain()
            eager.retrain()
            retrains += 1
            assert _rng_state(lazy) == _rng_state(eager), f"retrain after {k}"
    return retrains


def _assert_same_weights(lazy_members, eager_members):
    assert len(lazy_members) == len(eager_members)
    for got, want in zip(lazy_members, eager_members):
        assert np.array_equal(got.flat_params, want.flat_params)


@pytest.fixture
def fit_counter(monkeypatch):
    """Counts ``TreeConvNet.fit`` calls per net, keyed by ``id``."""
    counts: dict[int, int] = {}
    fit = TreeConvNet.fit

    def counting(self, *args, **kwargs):
        counts[id(self)] = counts.get(id(self), 0) + 1
        return fit(self, *args, **kwargs)

    monkeypatch.setattr(TreeConvNet, "fit", counting)
    return counts


def _owed(model) -> int:
    return sum(owed is not None for owed in model._owed)


@pytest.mark.parametrize("thompson", [True, False], ids=["bao", "mean"])
def test_lazy_refits_make_the_eager_decisions(featurizer, stream, fit_counter, thompson):
    lazy = TreeConvLatencyModel(featurizer, thompson=thompson, seed=4)
    eager = EagerTreeConvLatencyModel(featurizer, thompson=thompson, seed=4)
    lazy_ids = {id(m) for m in lazy.members()}
    assert _lockstep(lazy, eager, stream) == 3 and lazy.trained
    lazy.retrain()  # a retrain no decision reads: it fits nothing
    eager.retrain()
    assert _owed(lazy) == 3
    fits = sum(n for key, n in fit_counter.items() if key in lazy_ids)
    # Every recorded fit either ran once or is still owed.
    assert fits + _owed(lazy) == 3 * 4
    _assert_same_weights(lazy.members(), eager.members())
    assert _owed(lazy) == 0


def test_lazy_ensemble_makes_the_eager_decisions(featurizer, stream):
    lazy = EnsembleLatencyModel(featurizer, seed=2)
    eager = EagerEnsembleLatencyModel(featurizer, seed=2)  # both at 30 epochs
    assert _lockstep(lazy, eager, stream) == 3
    _assert_same_weights(lazy.inner.members(), eager.inner.members())


def test_bao_driver_under_background_updates_matches_the_eager_loop(stats_db):
    class EagerBaoDriver(BaoDriver):
        def _build_risk_model(self, featurizer):
            return EagerTreeConvLatencyModel(featurizer, thompson=True, seed=self.seed)

    serve = WorkloadGenerator(stats_db, seed=44).workload(80, 1, 4, require_predicate=True)
    consoles = []
    for driver in (BaoDriver(seed=6), EagerBaoDriver(seed=6)):
        console = PilotScopeConsole(SimulatedPostgreSQL(stats_db))
        console.register_driver(driver)
        console.start_driver(driver.name)
        driver.risk_model.epochs = EPOCHS
        console.enable_background_updates(EVERY)
        consoles.append((console, driver))
    (lazy_console, lazy), (eager_console, eager) = consoles
    for k, q in enumerate(serve, 1):
        got, want = lazy_console.execute(q), eager_console.execute(q)
        assert got.plan.signature() == want.plan.signature(), f"query {k}"
        assert got.latency_ms == want.latency_ms
        assert _rng_state(lazy.risk_model) == _rng_state(eager.risk_model), f"query {k}"
    assert lazy.risk_model.trained
    _assert_same_weights(lazy.risk_model.members(), eager.risk_model.members())


def _owing(featurizer, stream, seed=1):
    """A Bao model right after its first retrain: every member owes a fit."""
    model = TreeConvLatencyModel(featurizer, seed=seed)
    for cands, lats in stream[:EVERY]:
        model.observe(cands[0], lats[0])
    model.retrain()
    assert _owed(model) == 3
    return model


class _NeverLast:
    """``_rng`` with every Thompson draw (a scalar ``integers(n)``) mapped
    off the last member; bootstrap draws pass through.  Both sides of a
    comparison get one, so their generators still see the same calls."""

    def __init__(self, rng) -> None:
        self.rng = rng
        self.bit_generator = rng.bit_generator

    def integers(self, low, high=None, size=None):
        draw = self.rng.integers(low, high, size=size)
        return draw if size is not None else draw % (low - 1)


def test_a_member_never_sampled_owes_at_most_one_fit(featurizer, stream, fit_counter):
    lazy = TreeConvLatencyModel(featurizer, seed=3)
    eager = EagerTreeConvLatencyModel(featurizer, seed=3)
    lazy._rng, eager._rng = _NeverLast(lazy._rng), _NeverLast(eager._rng)
    last = lazy.members()[-1]
    assert _lockstep(lazy, eager, stream[:80]) == 3
    # Never read, the last member was fitted only when a retrain found it
    # owing: twice, with the third fit still owed.
    assert lazy._owed[-1] is not None
    assert fit_counter.get(id(last), 0) == 2
    _assert_same_weights(lazy.members(), eager.members())
    assert fit_counter[id(last)] == 3


# The featurizer holds the database: both clones share it, as a scheduler does.
CLONES = {
    "deepcopy": lambda m: copy.deepcopy(m, {id(m.featurizer): m.featurizer}),
    "clone_model": lambda m: clone_model(m, shared=(m.featurizer,)),
}


@pytest.mark.parametrize("clone", CLONES.values(), ids=CLONES.keys())
def test_cloned_then_forced_equals_forced_then_cloned(featurizer, stream, clone):
    model = _owing(featurizer, stream)
    cloned_first = clone(model)
    assert _owed(cloned_first) == 3
    model.members()
    forced_first = clone(model)
    assert _owed(forced_first) == 0
    _assert_same_weights(cloned_first.members(), forced_first.members())


def test_fingerprint_covers_owed_fits(featurizer, stream):
    model = _owing(featurizer, stream)
    owing = model_fingerprint(model, shared=(featurizer,))
    assert model_fingerprint(CLONES["deepcopy"](model), shared=(featurizer,)) == owing
    model.members()
    assert model_fingerprint(model, shared=(featurizer,)) != owing
