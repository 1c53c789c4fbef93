"""Pessimistic bounds, risk-bounded planning and the bound guard."""

import numpy as np
import pytest

from repro.cardest.base import sanitize_bound
from repro.cardest.bounds import AGMSketchBoundEstimator, MCVJoinBoundEstimator
from repro.bench.workloads import (
    adversarial_hot_key_drift,
    hot_key_probe_queries,
    hot_key_targets,
)
from repro.engine import CardinalityExecutor
from repro.faults import (
    BoundGuard,
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from repro.core.errors import ConfigError
from repro.core.interfaces import CardinalityEstimator
from repro.faults.boundguard import RATIO_WINDOW
from repro.optimizer import (
    Optimizer,
    RiskLambdaTuner,
    TraditionalCardinalityEstimator,
)
from repro.oracle import EstimatorContractChecker, apply_mutation
from repro.serve import Stage, bound_guard_scenario
from repro.serve.telemetry import TelemetryBus
from repro.sql import WorkloadGenerator, parse_query
from repro.storage import SchemaGenConfig, generate_database, make_stats_lite


@pytest.fixture(scope="module")
def bound_workload(stats_db):
    gen = WorkloadGenerator(stats_db, seed=81)
    return gen.workload(10, 1, 3, require_predicate=True)


class TestBoundSoundness:
    """The tentpole contract: bound >= true count, always."""

    @pytest.mark.parametrize(
        "cls", [MCVJoinBoundEstimator, AGMSketchBoundEstimator]
    )
    def test_bound_covers_exact_count_on_subqueries(
        self, stats_db, stats_executor, bound_workload, cls
    ):
        checker = EstimatorContractChecker(stats_db, cls(stats_db))
        violations = checker.check_bound_soundness(
            bound_workload, executor=stats_executor
        )
        assert checker.checks_run > 0
        assert violations == [], [str(v) for v in violations]

    def test_bound_dominates_point_estimates(self, stats_db, bound_workload):
        checker = EstimatorContractChecker(
            stats_db, MCVJoinBoundEstimator(stats_db)
        )
        violations = checker.check_bound_dominates(
            TraditionalCardinalityEstimator(stats_db),
            bound_workload,
            tolerance=1.1,
        )
        assert violations == [], [str(v) for v in violations]

    def test_batch_matches_scalar(self, stats_db, bound_workload):
        est = MCVJoinBoundEstimator(stats_db)
        batch = est.estimate_batch(list(bound_workload))
        scalars = np.array([est.estimate(q) for q in bound_workload])
        np.testing.assert_allclose(batch, scalars)

    def test_refresh_bumps_estimates_version(self, stats_db):
        est = MCVJoinBoundEstimator(stats_db)
        before = est.estimates_version
        est.refresh()
        assert est.estimates_version != before

    def test_mcv_pairs_can_be_looser_than_the_degree_bound(self):
        """The two estimators do not coincide on generated schemas.  On this
        3-table sub-query the MCV pair step is the smaller first step, and
        the greedy growth then compounds past the pure degree order: both
        bounds are sound, the MCV one is the looser."""
        db = generate_database(6, SchemaGenConfig(), name="gen")
        query = parse_query(
            "SELECT COUNT(*) FROM t0, t1, t4 WHERE t0.id = t1.fk_t0 AND t0.id = t4.fk_t0 "
            "AND t1.id = t4.fk_t1 AND t0.a0 = 6.0 AND t1.a0 BETWEEN 0.0 AND 1.0 AND t1.a1 <= 1.0"
        )
        exact = CardinalityExecutor(db).cardinality(query)
        mcv = MCVJoinBoundEstimator(db).estimate(query)
        agm = AGMSketchBoundEstimator(db).estimate(query)
        assert mcv > agm >= exact
        assert (mcv, agm, exact) == (1136.0, 990.0, 0)

    def test_oracle_catches_seeded_undercount(self, stats_db, bound_workload):
        with apply_mutation("bound_undercounts"):
            checker = EstimatorContractChecker(
                stats_db, MCVJoinBoundEstimator(stats_db)
            )
            violations = checker.check_bound_soundness(
                bound_workload, executor=CardinalityExecutor(stats_db)
            )
        assert violations, "the /8 undercount mutation went undetected"
        assert all(v.check == "bound_soundness" for v in violations)


class TestSanitizeBound:
    """Poisoned bounds widen to the cross product -- never shrink."""

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), -float("inf"), -1.0, None, "x"]
    )
    def test_unusable_bound_widens_to_cross_product(self, bad):
        assert sanitize_bound(bad, 1e6) == 1e6

    def test_finite_bound_capped_at_cross_product(self):
        assert sanitize_bound(50.0, 1e6) == 50.0
        assert sanitize_bound(2e9, 1e6) == 1e6

    def test_injected_nan_inf_bounds_stay_loose_not_off(self, stats_db):
        """Regression: a nan bound must not silently disable the guard."""
        plan = FaultPlan(
            (
                FaultSpec(kind="nan", rate=1.0, target="estimator", end_call=4),
                FaultSpec(kind="inf", rate=1.0, target="estimator"),
            ),
            seed=5,
        )
        injector = FaultInjector(plan)
        guard = BoundGuard(
            TraditionalCardinalityEstimator(stats_db),
            injector.wrap_estimator(MCVJoinBoundEstimator(stats_db)),
            TraditionalCardinalityEstimator(stats_db),
            db=stats_db,
        )
        q = WorkloadGenerator(stats_db, seed=82).random_query(
            2, 3, require_predicate=True
        )
        cross = 1.0
        for t in q.tables:
            cross *= stats_db.table(t).n_rows
        for _ in range(8):  # sweep both the nan and the inf window
            assert guard.certified_bound(q) == cross
            assert np.isfinite(guard.estimate(q))
        assert guard.estimate_violations == 0  # loose bound, honest point


class TestBoundGuard:
    def _guard(self, db, primary, **kwargs):
        kwargs.setdefault(
            "breaker", CircuitBreaker(failure_threshold=3, cooldown_ms=1e9)
        )
        kwargs.setdefault("telemetry", TelemetryBus())
        return BoundGuard(
            primary,
            MCVJoinBoundEstimator(db),
            TraditionalCardinalityEstimator(db),
            **kwargs,
        )

    def test_violation_trips_breaker_and_serves_fallback(self, stats_db):
        class Broken(CardinalityEstimator):
            def estimate(self, query):
                return 1e18

        guard = self._guard(stats_db, Broken())
        queries = WorkloadGenerator(stats_db, seed=83).workload(
            6, 2, 3, require_predicate=True
        )
        epoch_before = guard.breaker.epoch
        for q in queries:
            point = guard.estimate(q)
            assert point <= guard.certified_bound(q)
        assert guard.estimate_violations >= 3
        assert guard.breaker.trips == 1
        assert guard.breaker.epoch > epoch_before
        assert guard.fallback_served > 0
        snap = guard.telemetry.snapshot()
        assert snap["counters"]["bounds.estimate_violations"] == (
            guard.estimate_violations
        )
        events = [
            e for e in snap["events"] if e["kind"] == "bound_violation"
        ]
        assert len(events) == guard.violations

    def test_clean_estimator_never_trips(self, stats_db):
        guard = self._guard(stats_db, TraditionalCardinalityEstimator(stats_db))
        for q in WorkloadGenerator(stats_db, seed=84).workload(
            8, 1, 3, require_predicate=True
        ):
            guard.estimate(q)
        assert guard.violations == 0
        assert guard.breaker.trips == 0
        assert guard.fallback_served == 0

    def test_estimates_version_tracks_breaker_and_refresh(self, stats_db):
        guard = self._guard(stats_db, TraditionalCardinalityEstimator(stats_db))
        v0 = guard.estimates_version
        guard.bounds.refresh()
        v1 = guard.estimates_version
        assert v1 != v0
        for _ in range(3):
            guard.breaker.record_failure()
        assert guard.estimates_version != v1

    def test_ratio_window_is_bounded_to_the_newest_estimates(self, stats_db, bound_workload):
        """A guard lives as long as its server: the gauge's percentiles are
        over the most recent RATIO_WINDOW ratios, not every one ever seen."""

        class Constant(CardinalityEstimator):
            db = stats_db

            def estimate(self, query):
                return 1e6

        class Counting(CardinalityEstimator):
            served = 0

            def estimate(self, query):
                self.served += 1
                return float(self.served)

        bounds = Constant()
        guard = BoundGuard(Counting(), bounds, bounds)
        q = bound_workload[0]
        bound = guard.certified_bound(q)
        n = RATIO_WINDOW + 4_464  # 70,000
        for _ in range(n):
            guard.estimate(q)
        stats = guard.stats()
        assert stats["checked"] == n
        assert len(guard._ratios) == RATIO_WINDOW
        newest = bound / np.arange(n - RATIO_WINDOW + 1, n + 1, dtype=float)
        expected = np.percentile(newest, [50, 90, 99])
        got = [stats["ratio_p50"], stats["ratio_p90"], stats["ratio_p99"]]
        assert got == [float(v) for v in expected]

    def test_tolerance_below_one_rejected(self, stats_db):
        with pytest.raises(ValueError):
            self._guard(
                stats_db,
                TraditionalCardinalityEstimator(stats_db),
                tolerance=0.5,
            )

    def test_observed_count_over_bound_trips(self):
        """Unrefreshed drift voids the certificate; the auditor's truth
        must trip the guard -- and a refresh must restore coverage."""
        db = make_stats_lite(scale=0.2, seed=11)
        guard = self._guard(db, TraditionalCardinalityEstimator(db))
        targets = hot_key_targets(db)
        probes = hot_key_probe_queries(db, targets)
        adversarial_hot_key_drift(db, fraction=1.0, seed=11, targets=targets)
        executor = CardinalityExecutor(db)
        bus = TelemetryBus()
        tripped = 0
        for q in probes:
            truth = executor.cardinality(q)
            if guard.observe_count(q, truth, bus=bus):
                tripped += 1
        assert tripped > 0
        assert guard.bound_violations == tripped
        # filed on the bus it was given
        assert bus.snapshot()["counters"]["bounds.bound_violations"] == tripped
        assert guard.breaker.trips >= 1
        guard.bounds.refresh()
        for q in probes:
            assert guard.certified_bound(q) >= executor.cardinality(q)


class TestRiskBoundedPlanning:
    def test_blended_lambda_zero_matches_expected(self, stats_db):
        bounds = MCVJoinBoundEstimator(stats_db)
        expected = Optimizer(stats_db)
        blended = Optimizer(
            stats_db, bound_estimator=bounds, risk="blended", risk_lambda=0.0
        )
        for q in WorkloadGenerator(stats_db, seed=85).workload(
            6, 2, 4, require_predicate=True
        ):
            assert blended.plan(q).signature() == expected.plan(q).signature()

    def test_worst_case_requires_bound_estimator(self, stats_db):
        with pytest.raises(ValueError):
            Optimizer(stats_db, risk="worst_case")

    def test_worst_case_minimizes_bound_cost(self, stats_db):
        bounds = MCVJoinBoundEstimator(stats_db)
        worst = Optimizer(stats_db, bound_estimator=bounds, risk="worst_case")
        expected = Optimizer(stats_db)
        gen = WorkloadGenerator(stats_db, seed=86)
        coster = worst._planning_coster("worst_case", None)
        for q in gen.workload(6, 2, 4, require_predicate=True):
            wp, ep = worst.plan(q), expected.plan(q)
            assert wp.root.tables == frozenset(q.tables)
            # The worst-case plan is at least as good under worst-case
            # costing as the expected-mode plan.
            assert coster.cost(wp) <= coster.cost(ep) * (1 + 1e-9)


class TestExecutorMemoStaleness:
    def test_memo_invalidated_by_data_mutation(self):
        """The exact oracle must never answer from pre-mutation data."""
        db = make_stats_lite(scale=0.2, seed=12)
        executor = CardinalityExecutor(db)
        targets = hot_key_targets(db)
        q = hot_key_probe_queries(db, targets)[0]
        before = executor.cardinality(q)
        adversarial_hot_key_drift(db, fraction=1.0, seed=12, targets=targets)
        after = executor.cardinality(q)
        assert after > before


class TestDeploymentBoundRollback:
    def test_no_rollback_without_threshold(self):
        scenario = bound_guard_scenario(
            scale=0.2, seed=7, n_queries=64, n_sessions=4
        )
        scenario.run()
        assert scenario.bound_guard.violations > 0
        assert scenario.deployment.stage is not Stage.ROLLED_BACK


class TestRiskLambdaTuner:
    """Satellite 2: bound-guard violation rates close the loop on the
    planner's ``risk_lambda`` blend weight."""

    def _guard_and_opt(self, db, *, risk_lambda=0.2):
        bounds = MCVJoinBoundEstimator(db)
        opt = Optimizer(
            db, bound_estimator=bounds, risk="blended", risk_lambda=risk_lambda
        )
        guard = BoundGuard(
            TraditionalCardinalityEstimator(db),
            bounds,
            TraditionalCardinalityEstimator(db),
        )
        return opt, guard

    def test_raises_on_violations_decays_on_clean(
        self, stats_db, bound_workload
    ):
        opt, guard = self._guard_and_opt(stats_db)
        bus = TelemetryBus()
        tuner = RiskLambdaTuner(
            opt,
            guard,
            target_rate=0.05,
            window=5,
            step=0.2,
            decay=0.05,
            telemetry=bus,
        )
        q = bound_workload[0]
        # no adjustment before the window fills
        guard.observe_count(q, 0.0, bus=bus)
        assert tuner.tick() == pytest.approx(0.2)
        assert tuner.windows_observed == 0
        # a window full of audited bound violations raises the blend
        for _ in range(5):
            assert guard.observe_count(q, float("inf"), bus=bus)
        assert tuner.tick() == pytest.approx(0.4)
        assert opt.risk_lambda == pytest.approx(0.4)
        assert tuner.raises == 1
        snap = bus.snapshot()
        assert snap["counters"]["risk_tuner.violations"] == 1
        # clean windows decay it back toward expected-cost planning
        for _ in range(2):
            for _ in range(5):
                guard.observe_count(q, 0.0, bus=bus)
            tuner.tick()
        assert opt.risk_lambda == pytest.approx(0.3)
        assert tuner.decays == 2

    def test_lambda_clamped_to_configured_bounds(
        self, stats_db, bound_workload
    ):
        opt, guard = self._guard_and_opt(stats_db, risk_lambda=0.9)
        tuner = RiskLambdaTuner(
            opt, guard, target_rate=0.0, window=2, step=0.5, decay=2.0
        )
        bus = TelemetryBus()
        q = bound_workload[0]
        for _ in range(2):
            guard.observe_count(q, float("inf"), bus=bus)
        assert tuner.tick() == pytest.approx(1.0)  # not 1.4
        for _ in range(2):
            guard.observe_count(q, 0.0, bus=bus)
        assert tuner.tick() == pytest.approx(0.0)  # not -1.0

    def test_config_validation(self, stats_db):
        opt, guard = self._guard_and_opt(stats_db)
        with pytest.raises(ConfigError):
            RiskLambdaTuner(opt, guard, window=0)
        with pytest.raises(ConfigError):
            RiskLambdaTuner(opt, guard, target_rate=1.5)
        with pytest.raises(ConfigError):
            RiskLambdaTuner(opt, guard, step=0.0)
        with pytest.raises(ConfigError):
            RiskLambdaTuner(opt, guard, min_lambda=0.8, max_lambda=0.2)

    def test_deployment_integration_raises_lambda(self):
        """A garbage-spewing estimator behind the guard drives the
        deployment-ticked tuner to plan more pessimistically."""
        from repro.e2e.bao import BaoOptimizer
        from repro.engine import ExecutionSimulator
        from repro.serve import DeploymentManager, TelemetryBus as _Bus

        db = make_stats_lite(scale=0.3, seed=7)
        bounds = MCVJoinBoundEstimator(db)
        planning = Optimizer(
            db, bound_estimator=bounds, risk="blended", risk_lambda=0.1
        )
        injector = FaultInjector(
            FaultPlan(
                (
                    FaultSpec(
                        kind="garbage",
                        rate=0.6,
                        target="estimator",
                        magnitude=1e12,
                    ),
                ),
                seed=7,
            )
        )
        guard = BoundGuard(
            injector.wrap_estimator(planning.estimator),
            bounds,
            TraditionalCardinalityEstimator(db),
        )
        subject = planning.with_estimator(guard)
        tuner = RiskLambdaTuner(subject, guard, window=25, step=0.2)
        bus = _Bus()
        deployment = DeploymentManager(
            BaoOptimizer(subject, seed=7),
            Optimizer(db),
            ExecutionSimulator(db),
            telemetry=bus,
            stage=Stage.CANARY,
            canary_fraction=0.5,
            regression_threshold=3.0,
            window=40,
            min_samples=15,
            policies=[guard, tuner],
        )
        queries = WorkloadGenerator(db, seed=8).workload(
            24, 2, 4, require_predicate=True
        )
        for q in queries:
            deployment.serve(q)
        assert guard.violations > 0
        assert tuner.windows_observed >= 1
        assert tuner.raises >= 1
        assert subject.risk_lambda > 0.1
        # the gauge surfaces the tuner's state in the bus snapshot
        assert (
            bus.snapshot()["gauges"]["risk_tuner"]["risk_lambda"]
            == subject.risk_lambda
        )
