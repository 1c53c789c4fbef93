"""Tests for the regression-elimination plugins (Eraser, PerfGuard)."""

import pytest

from repro.core.framework import CandidatePlan, RetrainCadence
from repro.costmodel import PlanFeaturizer
from repro.e2e import BaoOptimizer, OptimizationLoop
from repro.regression import Eraser, GuardChain, PerfGuard
from repro.regression.eraser import _plan_features
from repro.serve.telemetry import TelemetryBus
from repro.sql import WorkloadGenerator


@pytest.fixture(scope="module")
def featurizer(imdb_db, imdb_optimizer):
    return PlanFeaturizer(imdb_db, imdb_optimizer.estimator)


@pytest.fixture(scope="module")
def workload(imdb_db):
    return WorkloadGenerator(imdb_db, seed=90).workload(
        120, 2, 4, require_predicate=True
    )


def _first_divergent(optimizer, workload):
    """First (query, native, hinted) triple whose plans differ."""
    from repro.optimizer import HintSet

    for q in workload:
        native = optimizer.plan(q)
        risky = optimizer.plan(q, hints=HintSet(enable_hash_join=False))
        if risky.signature() != native.signature():
            return q, native, risky
    pytest.skip("no hint-sensitive query in this workload")


class TestPlanFeatures:
    def test_features_distinguish_methods(self, imdb_optimizer, workload):
        from repro.optimizer import HintSet

        q = workload[0]
        a = imdb_optimizer.plan(q)
        b = imdb_optimizer.plan(q, hints=HintSet(enable_hash_join=False))
        if a.signature() != b.signature():
            assert _plan_features(a) != _plan_features(b)


class TestEraser:
    def test_passes_native_plan_through(self, featurizer, imdb_optimizer, workload):
        eraser = Eraser(featurizer)
        q = workload[0]
        native = imdb_optimizer.plan(q)
        cand = CandidatePlan(native, "default")
        assert eraser(q, cand, native) is cand

    def test_coarse_filter_blocks_unseen(self, featurizer, imdb_optimizer, workload):
        from repro.optimizer import HintSet

        eraser = Eraser(featurizer)
        q, native, risky = _first_divergent(imdb_optimizer, workload)
        out = eraser(q, CandidatePlan(risky, "arm"), native)
        assert out.source == "eraser:coarse"
        assert out.plan.signature() == native.signature()

    def test_seen_features_pass(self, featurizer, imdb_optimizer, imdb_simulator, workload):
        from repro.optimizer import HintSet

        eraser = Eraser(featurizer)
        q, native, risky = _first_divergent(imdb_optimizer, workload)
        cand = CandidatePlan(risky, "arm")
        # Record the same plan once: its features are now 'seen'.
        eraser.record(q, cand, 1.0, 1.0)
        out = eraser(q, cand, native)
        assert out is cand

    def test_reduces_regressions_of_a_risky_chooser(
        self, imdb_optimizer, imdb_simulator, featurizer, workload
    ):
        # A frozen chooser that always proposes the nested-loop-only plan:
        # frequently a regression.  Frozen = no feedback divergence, so the
        # with/without-Eraser comparison is deterministic.
        from repro.optimizer import HintSet

        class RiskyChooser:
            def choose_plan(self, query):
                plan = imdb_optimizer.plan(
                    query, hints=HintSet(enable_hash_join=False, enable_merge_join=False)
                )
                return CandidatePlan(plan, "risky")

            def record_feedback(self, query, candidate, latency_ms):
                pass

        plain = OptimizationLoop(RiskyChooser(), imdb_simulator, imdb_optimizer)
        plain.run(workload)
        guarded = OptimizationLoop(
            RiskyChooser(),
            imdb_simulator,
            imdb_optimizer,
            guard=Eraser(featurizer),
        )
        guarded.run(workload)
        p, g = plain.summary(tail=60), guarded.summary(tail=60)
        assert g["n_regressions"] < p["n_regressions"]
        assert g["total_latency_ms"] < p["total_latency_ms"]

    def test_intervention_rate_tracked(self, featurizer, imdb_optimizer, workload):
        eraser = Eraser(featurizer)
        q = workload[0]
        native = imdb_optimizer.plan(q)
        eraser(q, CandidatePlan(native, "default"), native)
        assert eraser.decisions == 1
        assert 0.0 <= eraser.intervention_rate <= 1.0


class TestPerfGuard:
    def test_untrained_passes_candidates(self, featurizer, imdb_optimizer, workload):
        from repro.optimizer import HintSet

        guard = PerfGuard(featurizer)
        q = workload[0]
        native = imdb_optimizer.plan(q)
        other = imdb_optimizer.plan(q, hints=HintSet(enable_hash_join=False))
        cand = CandidatePlan(other, "arm")
        out = guard(q, cand, native)
        # Untrained comparator returns P=0.5 > 1-0.45: candidate passes.
        assert out is cand

    def test_record_native_creates_pairs(
        self, featurizer, imdb_optimizer, imdb_simulator, workload
    ):
        from repro.optimizer import HintSet

        guard = PerfGuard(featurizer)
        made_pairs = 0
        for q in workload[:20]:
            native = imdb_optimizer.plan(q)
            other = imdb_optimizer.plan(q, hints=HintSet(enable_nested_loop=False))
            if other.signature() == native.signature():
                continue
            cand = CandidatePlan(other, "arm")
            guard.record(q, cand, imdb_simulator.execute(other).latency_ms, 1.0)
            guard.record_native(
                q, native, imdb_simulator.execute(native).latency_ms
            )
            made_pairs += 1
        if made_pairs == 0:
            pytest.skip("no plan diversity in this workload slice")
        assert guard.comparator.n_pairs >= 0  # pairs may tie-filter

    def test_eliminates_regressions_when_conservative(
        self, imdb_optimizer, imdb_simulator, featurizer, workload
    ):
        guard = PerfGuard(featurizer)
        bao = BaoOptimizer(imdb_optimizer, seed=0)
        loop = OptimizationLoop(
            bao,
            imdb_simulator,
            imdb_optimizer,
            guard=guard,
            policies=[RetrainCadence(bao, every=25), RetrainCadence(guard, every=30)],
        )
        loop.run(workload)
        s = loop.summary(tail=60)
        # PerfGuard's contract: (almost) no regressions, possibly at the
        # cost of most of the improvement.
        assert s["worst_regression"] < 2.0


class _SpyGuard:
    """Stub guard: records what it saw, optionally swaps in native."""

    def __init__(self, tag, swap=False):
        self.tag = tag
        self.swap = swap
        self.seen_sources = []
        self.recorded = []

    def __call__(self, query, candidate, native_plan):
        self.seen_sources.append(candidate.source)
        if self.swap and candidate.plan.signature() != native_plan.signature():
            return CandidatePlan(plan=native_plan, source=self.tag)
        return candidate

    def record(self, query, candidate, latency_ms, native_latency_ms):
        self.recorded.append(candidate.source)

    def record_native(self, query, native_plan, native_latency_ms):
        pass


class TestGuardChain:
    def test_requires_guards(self):
        with pytest.raises(ValueError):
            GuardChain(telemetry=TelemetryBus())

    def test_order_respected(self, imdb_optimizer, workload):
        # The second guard must see the *first* guard's output: after g1
        # swaps in the native plan, g2 observes source "g1", not "arm".
        q, native, risky = _first_divergent(imdb_optimizer, workload)
        g1, g2 = _SpyGuard("g1", swap=True), _SpyGuard("g2")
        chain = GuardChain(g1, g2, telemetry=TelemetryBus())
        out = chain(q, CandidatePlan(risky, "arm"), native)
        assert g1.seen_sources == ["arm"]
        assert g2.seen_sources == ["g1"]
        assert out.source == "g1"
        assert chain.last_applied == ["g1"]

    def test_feedback_fans_out(self, imdb_optimizer, workload):
        q = workload[0]
        native = imdb_optimizer.plan(q)
        g1, g2 = _SpyGuard("g1"), _SpyGuard("g2")
        chain = GuardChain(g1, g2, telemetry=TelemetryBus())
        chain.record(q, CandidatePlan(native, "default"), 1.0, 1.0)
        assert g1.recorded == ["default"]
        assert g2.recorded == ["default"]

    def test_eraser_and_perfguard_stacked_on_loop(
        self, featurizer, imdb_optimizer, imdb_simulator, workload
    ):
        # Eraser and PerfGuard on the same OptimizationLoop: both see every
        # decision (order: Eraser first), both learn from the shared
        # feedback stream, and an Eraser-guarded regression actually runs
        # the native plan.
        from repro.optimizer import HintSet

        class RiskyChooser:
            def choose_plan(self, query):
                plan = imdb_optimizer.plan(
                    query,
                    hints=HintSet(
                        enable_hash_join=False, enable_merge_join=False
                    ),
                )
                return CandidatePlan(plan, "risky")

            def record_feedback(self, query, candidate, latency_ms):
                pass

        eraser = Eraser(featurizer)
        perfguard = PerfGuard(featurizer)
        chain = GuardChain(eraser, perfguard, telemetry=TelemetryBus())
        loop = OptimizationLoop(
            RiskyChooser(), imdb_simulator, imdb_optimizer, guard=chain,
            policies=[RetrainCadence(perfguard, every=30)],
        )
        results = loop.run(workload[:60])
        # Both guards were consulted for every query, in chain order.
        assert eraser.decisions == perfguard.decisions == len(results)
        guarded = [r for r in results if r.plan_source.startswith("eraser")]
        assert guarded, "Eraser never intervened on the risky chooser"
        for r in guarded:
            # The fallback genuinely served the native plan.
            assert r.latency_ms == pytest.approx(r.native_latency_ms)
        # Feedback fan-out reached both members.
        assert eraser._seen_features
        assert len(perfguard.comparator._by_query) > 0
