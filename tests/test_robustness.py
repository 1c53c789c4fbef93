"""Robustness and failure-injection tests across module boundaries."""

import numpy as np
import pytest

from repro.cardest import FSPNEstimator, HistogramEstimator
from repro.core.framework import CandidatePlan, RetrainCadence
from repro.core.interfaces import CardinalityEstimator, InjectedCardinalities
from repro.e2e import BaoOptimizer, OptimizationLoop
from repro.engine import ExecutionSimulator, SimulatorConfig
from repro.faults import CircuitBreaker
from repro.optimizer import Optimizer
from repro.pilotscope import PilotScopeConsole, SimulatedPostgreSQL
from repro.serve.telemetry import TelemetryBus
from repro.sql import Query, WorkloadGenerator
from repro.storage import make_stats_lite, make_tpch_lite


class TestBrokenEstimatorInjection:
    """The planner must survive arbitrarily broken estimators."""

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), -5.0, 0.0, 1e30]
    )
    def test_planner_survives_pathological_estimates(self, stats_db, value):
        class Broken(CardinalityEstimator):
            def estimate(self, query):
                return value

        opt = Optimizer(stats_db).with_estimator(Broken())
        gen = WorkloadGenerator(stats_db, seed=170)
        q = gen.random_query(2, 4, require_predicate=True)
        plan = opt.plan(q)  # must not raise
        assert plan.root.tables == frozenset(q.tables)

    def test_simulator_results_independent_of_estimator(self, stats_db):
        """Broken estimates change plans, never results."""

        class Broken(CardinalityEstimator):
            def estimate(self, query):
                return 1.0

        sim = ExecutionSimulator(stats_db)
        native = Optimizer(stats_db)
        broken = native.with_estimator(Broken())
        gen = WorkloadGenerator(stats_db, seed=171)
        for q in gen.workload(10, 1, 4, require_predicate=True):
            a = sim.execute(native.plan(q)).cardinality
            b = sim.execute(broken.plan(q)).cardinality
            assert a == b

    def test_injection_wrapper_rejects_bad_batch(self, stats_db):
        wrapped = InjectedCardinalities(HistogramEstimator(stats_db))
        with pytest.raises(ValueError):
            wrapped.inject_batch({"SELECT COUNT(*) FROM users": -3.0})


class TestNoisySimulator:
    def test_learning_still_works_under_noise(self, imdb_db, imdb_optimizer):
        noisy = ExecutionSimulator(
            imdb_db, SimulatorConfig(noise_sigma=0.15, noise_seed=7)
        )
        workload = WorkloadGenerator(imdb_db, seed=172).workload(
            120, 2, 4, require_predicate=True
        )
        bao = BaoOptimizer(imdb_optimizer, seed=0)
        loop = OptimizationLoop(
            bao, noisy, imdb_optimizer, policies=[RetrainCadence(bao, every=25)]
        )
        loop.run(workload)
        s = loop.summary(tail=60)
        # Noise makes learning harder but must not break it outright.
        assert s["workload_speedup"] > 0.8

    def test_noise_preserves_cardinality(self, stats_db, stats_optimizer):
        noisy = ExecutionSimulator(
            stats_db, SimulatorConfig(noise_sigma=0.5, noise_seed=3)
        )
        clean = ExecutionSimulator(stats_db)
        gen = WorkloadGenerator(stats_db, seed=173)
        q = gen.random_query(2, 3, require_predicate=True)
        plan = stats_optimizer.plan(q)
        assert noisy.execute(plan).cardinality == clean.execute(plan).cardinality


class TestPilotScopeConfig:
    def test_greedy_algorithm_config(self, stats_db):
        pg = SimulatedPostgreSQL(stats_db)
        gen = WorkloadGenerator(stats_db, seed=174)
        q = gen.random_query(3, 4, require_predicate=True)
        with pg.open_session() as session:
            session.push_config("algorithm", "greedy")
            plan = session.pull_plan(q)
        assert plan.root.tables == frozenset(q.tables)

    def test_console_accepts_query_objects_and_sql(self, stats_db):
        console = PilotScopeConsole(SimulatedPostgreSQL(stats_db))
        q = Query(("users",))
        by_object = console.execute(q)
        by_sql = console.execute(q.to_sql())
        assert by_object.cardinality == by_sql.cardinality


class TestCrossDatabaseSanity:
    """Every major component must run on every bundled schema."""

    @pytest.mark.parametrize(
        "maker",
        [
            pytest.param(lambda: make_stats_lite(scale=0.25, seed=11), id="make_stats_lite"),
            pytest.param(make_tpch_lite, id="make_tpch_lite"),
        ],
    )
    def test_fspn_and_bao_on_other_schemas(self, maker):
        db = maker()
        est = FSPNEstimator(db)
        opt = Optimizer(db)
        sim = ExecutionSimulator(db)
        gen = WorkloadGenerator(db, seed=175)
        workload = gen.workload(20, 1, 4, require_predicate=True)
        for q in workload[:5]:
            assert est.estimate(q) >= 0.0
        bao = BaoOptimizer(opt, seed=0)
        loop = OptimizationLoop(bao, sim, opt)
        loop.run(workload)
        assert loop.summary()["n_queries"] == 20

    def test_guard_on_tpch_uniform_data(self):
        """On uniform TPC-H-like data the native optimizer is hard to
        beat; the loop must remain stable anyway."""
        from repro.costmodel import PlanFeaturizer
        from repro.regression import Eraser

        db = make_tpch_lite()
        opt = Optimizer(db)
        sim = ExecutionSimulator(db)
        feat = PlanFeaturizer(db, opt.estimator)
        workload = WorkloadGenerator(db, seed=176).workload(
            40, 2, 4, require_predicate=True
        )
        bao = BaoOptimizer(opt, seed=0)
        loop = OptimizationLoop(
            bao, sim, opt, guard=Eraser(feat), policies=[RetrainCadence(bao, every=25)]
        )
        loop.run(workload)
        assert loop.summary()["worst_regression"] < 5.0


# ---------------------------------------------------------------------------
# PR 3: deterministic fault injection + the graceful-degradation ladder
# ---------------------------------------------------------------------------


class TestSanitizeEstimate:
    def test_nonfinite_and_negative_values(self):
        from repro.cardest.base import NONFINITE_FALLBACK, sanitize_estimate

        assert sanitize_estimate(float("nan")) == NONFINITE_FALLBACK
        assert sanitize_estimate(float("inf")) == NONFINITE_FALLBACK
        assert sanitize_estimate(float("-inf")) == NONFINITE_FALLBACK
        assert sanitize_estimate(-42.0) == 0.0
        assert sanitize_estimate(17.5) == 17.5

    def test_upper_bound_clamps(self):
        from repro.cardest.base import sanitize_estimate

        assert sanitize_estimate(1e12, upper=100.0) == 100.0
        assert sanitize_estimate(float("nan"), upper=100.0) == 100.0
        assert sanitize_estimate(50.0, upper=100.0) == 50.0

    def test_vectorized_matches_scalar(self):
        from repro.cardest.base import sanitize_estimate, sanitize_estimates

        values = [float("nan"), float("inf"), -3.0, 0.0, 2.5, 1e35]
        uppers = [10.0, None, 5.0, 5.0, None, 1e30]
        vec = sanitize_estimates(np.array(values), uppers)
        for got, v, u in zip(vec, values, uppers):
            assert got == sanitize_estimate(v, upper=u)

    def test_estimator_surface_is_always_finite(self, stats_db):
        class Broken:
            def _estimate(self, query):
                return float("nan")

        from repro.cardest.base import BaseCardinalityEstimator

        class BrokenEst(BaseCardinalityEstimator):
            name = "broken"

            def __init__(self, db):
                super().__init__(db)

            def _estimate(self, query):
                return float("inf")

        est = BrokenEst(stats_db)
        q = WorkloadGenerator(stats_db, seed=180).random_query(
            2, 3, require_predicate=True
        )
        assert np.isfinite(est.estimate(q))


class TestTypedErrors:
    def test_hierarchy(self):
        from repro.core.errors import (
            ConfigError,
            DriverError,
            EstimationError,
            InjectedDriverError,
            InjectedEstimationError,
            InjectedFault,
            ReproError,
            SessionClosedError,
        )

        assert issubclass(ConfigError, ValueError)
        assert issubclass(ConfigError, ReproError)
        assert issubclass(DriverError, RuntimeError)
        assert issubclass(SessionClosedError, DriverError)
        assert issubclass(EstimationError, ReproError)
        assert issubclass(InjectedEstimationError, InjectedFault)
        assert issubclass(InjectedEstimationError, EstimationError)
        assert issubclass(InjectedDriverError, DriverError)

    def test_config_errors_still_catchable_as_valueerror(self, stats_db):
        console = PilotScopeConsole(SimulatedPostgreSQL(stats_db))
        with pytest.raises(ValueError):
            console.enable_background_updates(0)

    def test_driver_use_before_init_is_driver_error(self, stats_db):
        from repro.core.errors import DriverError
        from repro.pilotscope import CardinalityInjectionDriver

        driver = CardinalityInjectionDriver(HistogramEstimator(stats_db))
        q = Query(("users",))
        with pytest.raises(DriverError):
            driver.algo(q)


class TestCircuitBreaker:
    def _breaker(self, **kw):
        from repro.faults import CircuitBreaker, VirtualClock

        clock = VirtualClock()
        kw.setdefault("failure_threshold", 3)
        kw.setdefault("cooldown_ms", 100.0)
        return CircuitBreaker(clock=clock, **kw), clock

    def test_trips_after_consecutive_failures(self):
        from repro.faults import BreakerState

        breaker, _ = self._breaker()
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 1
        assert not breaker.allow()

    def test_success_resets_failure_streak(self):
        from repro.faults import BreakerState

        breaker, _ = self._breaker()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_after_cooldown_then_close(self):
        from repro.faults import BreakerState

        breaker, clock = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        assert not breaker.allow()
        clock.advance(100.0)
        assert breaker.allow()  # cooldown elapsed -> half-open probe
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_failure_reopens(self):
        from repro.faults import BreakerState

        breaker, clock = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(100.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 2


class TestFaultPlanDeterminism:
    def _plan(self, seed):
        from repro.faults import FaultPlan, FaultSpec

        return FaultPlan(
            (
                FaultSpec(kind="nan", rate=0.2, target="estimator"),
                FaultSpec(kind="exception", rate=0.1, target="estimator"),
            ),
            seed=seed,
        )

    def test_same_seed_same_decisions(self):
        a = self._plan(seed=4)
        b = self._plan(seed=4)
        decisions_a = [a.decide("estimator", i) for i in range(200)]
        decisions_b = [b.decide("estimator", i) for i in range(200)]
        assert decisions_a == decisions_b
        assert any(d is not None for d in decisions_a)

    def test_different_seeds_differ(self):
        a = [self._plan(seed=1).decide("estimator", i) for i in range(200)]
        b = [self._plan(seed=2).decide("estimator", i) for i in range(200)]
        assert a != b

    def test_call_window_respected(self):
        from repro.faults import FaultPlan, FaultSpec

        plan = FaultPlan(
            (FaultSpec(kind="exception", rate=1.0, target="x", start_call=5, end_call=8),),
            seed=0,
        )
        fired = [i for i in range(20) if plan.decide("x", i) is not None]
        assert fired == [5, 6, 7]

    def test_rate_zero_and_one(self):
        from repro.faults import FaultPlan, FaultSpec

        never = FaultPlan((FaultSpec(kind="nan", rate=0.0, target="t"),), seed=0)
        always = FaultPlan((FaultSpec(kind="nan", rate=1.0, target="t"),), seed=0)
        assert all(never.decide("t", i) is None for i in range(50))
        assert all(always.decide("t", i) is not None for i in range(50))

    def test_garbage_value_reproducible(self):
        a = self._plan(seed=9)
        b = self._plan(seed=9)
        assert a.garbage_value("estimator", 3, 100.0) == b.garbage_value(
            "estimator", 3, 100.0
        )


class TestFallbackEstimator:
    def _resilient(self, stats_db, primary, breaker):
        from repro.faults import FallbackEstimator

        return FallbackEstimator(
            primary, HistogramEstimator(stats_db), breaker=breaker, telemetry=TelemetryBus()
        )

    def test_primary_exception_serves_fallback(self, stats_db):
        class Crashing(CardinalityEstimator):
            def estimate(self, query):
                raise RuntimeError("model exploded")

        est = self._resilient(stats_db, Crashing(), CircuitBreaker())
        q = WorkloadGenerator(stats_db, seed=181).random_query(
            2, 3, require_predicate=True
        )
        value = est.estimate(q)
        assert np.isfinite(value) and value >= 0.0
        assert est.fallback_served == 1
        assert est.primary_errors == 1

    def test_nonfinite_output_serves_fallback(self, stats_db):
        class NaNny(CardinalityEstimator):
            def estimate(self, query):
                return float("nan")

        est = self._resilient(stats_db, NaNny(), CircuitBreaker())
        q = WorkloadGenerator(stats_db, seed=182).random_query(
            2, 3, require_predicate=True
        )
        assert np.isfinite(est.estimate(q))
        assert est.nonfinite_outputs == 1

    def test_breaker_opens_and_denies_primary(self, stats_db):
        from repro.faults import BreakerState

        class Crashing(CardinalityEstimator):
            calls = 0

            def estimate(self, query):
                Crashing.calls += 1
                raise RuntimeError("down")

        breaker = CircuitBreaker(failure_threshold=2, cooldown_ms=1e9)
        est = self._resilient(stats_db, Crashing(), breaker)
        q = WorkloadGenerator(stats_db, seed=183).random_query(
            2, 3, require_predicate=True
        )
        for _ in range(5):
            assert np.isfinite(est.estimate(q))
        assert breaker.state is BreakerState.OPEN
        assert Crashing.calls == 2  # breaker stopped further primary calls
        assert est.breaker_denied == 3

    def test_estimates_version_tracks_breaker_epoch(self, stats_db):
        class Crashing(CardinalityEstimator):
            def estimate(self, query):
                raise RuntimeError("down")

        breaker = CircuitBreaker(failure_threshold=1, cooldown_ms=1e9)
        est = self._resilient(stats_db, Crashing(), breaker)
        before = est.estimates_version
        q = WorkloadGenerator(stats_db, seed=184).random_query(
            2, 3, require_predicate=True
        )
        est.estimate(q)  # trips the breaker
        assert est.estimates_version != before


def _fault_log(injector, monkeypatch) -> list:
    """Every ``(call index, kind)`` the injector's plan fires, in order."""
    fired = []
    decide = injector.plan.decide

    def logged(target, call_index):
        spec = decide(target, call_index)
        if spec is not None:
            fired.append((call_index, spec.kind))
        return spec

    monkeypatch.setattr(injector.plan, "decide", logged)
    return fired


class TestBatchedFaultSchedule:
    """A batched call meets the fault schedule one query at a time: under
    the default chaos plan each wrapper's ``estimate_batch`` equals its
    scalar loop value for value and fault index for fault index."""

    @staticmethod
    def _stack(stats_db, monkeypatch, fallback):
        from repro.faults import FallbackEstimator, FaultInjector
        from repro.optimizer import TraditionalCardinalityEstimator
        from repro.serve.scenarios import default_chaos_plan

        injector = FaultInjector(default_chaos_plan(0))
        fired = _fault_log(injector, monkeypatch)
        estimator = injector.wrap_estimator(TraditionalCardinalityEstimator(stats_db))
        if fallback:
            breaker = CircuitBreaker(cooldown_ms=500.0, clock=injector.clock, name="estimator")
            estimator = FallbackEstimator(
                estimator,
                TraditionalCardinalityEstimator(stats_db),
                breaker=breaker,
                telemetry=TelemetryBus(),
            )
        return injector, estimator, fired

    @staticmethod
    def _queries(stats_workload):
        return [sub for q in stats_workload for sub in q.connected_subqueries()]

    def test_fallback_estimate_batch_is_its_scalar_loop(self, stats_db, stats_workload, monkeypatch):
        queries = self._queries(stats_workload)
        injector, batched, fired = self._stack(stats_db, monkeypatch, fallback=True)
        twin, scalar, twin_fired = self._stack(stats_db, monkeypatch, fallback=True)
        got = batched.estimate_batch(queries)
        want = np.array([scalar.estimate(q) for q in queries], dtype=float)
        assert got.tobytes() == want.tobytes()
        assert fired == twin_fired and {kind for _, kind in fired} >= {"exception", "nan", "stale"}
        assert injector.stats() == twin.stats()
        assert batched.stats() == scalar.stats() and batched.breaker.trips > 0

    def test_faulty_estimate_batch_is_its_scalar_loop(self, stats_db, stats_workload, monkeypatch):
        from repro.core.errors import InjectedEstimationError

        queries = self._queries(stats_workload)
        injector, batched, fired = self._stack(stats_db, monkeypatch, fallback=False)
        twin, scalar, twin_fired = self._stack(stats_db, monkeypatch, fallback=False)
        want = []
        for q in queries:
            try:
                want.append(scalar.estimate(q))
            except InjectedEstimationError:
                want.append("raised")
        # the same queries through estimate_batch: each run of answers in
        # one call, each raising query on its own
        got, i = [], 0
        while i < len(queries):
            if want[i] == "raised":
                with pytest.raises(InjectedEstimationError):
                    batched.estimate_batch([queries[i]])
                got.append("raised")
                i += 1
                continue
            end = next((j for j in range(i, len(queries)) if want[j] == "raised"), len(queries))
            got.extend(batched.estimate_batch(queries[i:end]).tolist())
            i = end
        assert list(map(repr, got)) == list(map(repr, want))
        assert fired == twin_fired and "raised" in want
        assert injector.stats() == twin.stats() and batched.calls == scalar.calls == len(queries)


class TestConsoleResilience:
    class FlakyDriver:
        """Raises DriverError on the first ``fail_first`` calls."""

        injection_type = "query_optimizer"
        name = "flaky"

        def __init__(self, fail_first=0):
            self.fail_first = fail_first
            self.calls = 0

        def init(self, interactor, config=None):
            self.interactor = interactor

        def algo(self, query):
            from repro.core.errors import DriverError

            self.calls += 1
            if self.calls <= self.fail_first:
                raise DriverError("transient")
            return self.interactor.execute_default(query)

        def background_update(self):
            pass

    def _console(self, stats_db, driver, **kw):
        console = PilotScopeConsole(SimulatedPostgreSQL(stats_db), **kw)
        console.register_driver(driver)
        console.start_driver("flaky")
        return console

    def test_transient_failure_is_retried(self, stats_db):
        driver = self.FlakyDriver(fail_first=1)
        console = self._console(stats_db, driver)
        console.execute(Query(("users",)))
        assert console.query_log[-1].served_by == "flaky"
        assert console.retries == 1
        assert console.native_fallbacks == 0

    def test_exhausted_retries_degrade_to_native(self, stats_db):
        driver = self.FlakyDriver(fail_first=100)
        console = self._console(stats_db, driver)
        outcome = console.execute(Query(("users",)))
        assert outcome.cardinality >= 0
        assert console.query_log[-1].served_by == "native"
        assert console.native_fallbacks == 1
        assert console.driver_errors == 2  # default policy: 2 attempts

    def test_backoff_is_deterministic(self):
        from repro.faults import RetryPolicy

        policy = RetryPolicy()
        assert [policy.backoff_ms(i) for i in range(3)] == [5.0, 10.0, 20.0]


class TestGuardChainContainment:
    class CrashingGuard:
        def __call__(self, query, candidate, native_plan):
            raise RuntimeError("guard bug")

        def record(self, query, candidate, latency_ms, native_latency_ms):
            raise RuntimeError("feedback bug")

        def record_native(self, query, native_plan, native_latency_ms):
            raise RuntimeError("feedback bug")

    class SwapGuard:
        def __init__(self, optimizer):
            self.optimizer = optimizer

        def __call__(self, query, candidate, native_plan):
            return CandidatePlan(plan=native_plan, source="swap")

        def record(self, query, candidate, latency_ms, native_latency_ms):
            pass

        def record_native(self, query, native_plan, native_latency_ms):
            pass

    def test_crashing_guard_abstains(self, stats_db, stats_optimizer):
        from repro.regression import GuardChain

        chain = GuardChain(
            self.CrashingGuard(), self.SwapGuard(stats_optimizer), telemetry=TelemetryBus()
        )
        q = WorkloadGenerator(stats_db, seed=185).random_query(
            2, 3, require_predicate=True
        )
        native_plan = stats_optimizer.plan(q)
        candidate = CandidatePlan(plan=native_plan, source="learned")
        out = chain(q, candidate, native_plan)
        # First guard crashed (contained); second still ran and swapped.
        assert out.source == "swap"
        assert chain.errors == 1
        assert chain.last_errors[0][0] == "CrashingGuard"

    def test_feedback_containment(self, stats_db, stats_optimizer):
        from repro.regression import GuardChain

        chain = GuardChain(self.CrashingGuard(), telemetry=TelemetryBus())
        q = WorkloadGenerator(stats_db, seed=186).random_query(
            2, 3, require_predicate=True
        )
        plan = stats_optimizer.plan(q)
        chain.record(q, CandidatePlan(plan=plan, source="x"), 1.0, 1.0)
        assert chain.errors == 1

    def test_loop_survives_crashing_learned_and_guard(
        self, stats_db, stats_optimizer
    ):
        class CrashingLearned:
            def __init__(self):
                self.calls = 0

            def choose_plan(self, query):
                self.calls += 1
                if self.calls % 3 == 0:
                    raise RuntimeError("inference crashed")
                plan = stats_optimizer.plan(query)
                return CandidatePlan(plan=plan, source="learned")

            def record_feedback(self, query, candidate, latency_ms):
                pass

        sim = ExecutionSimulator(stats_db)
        workload = WorkloadGenerator(stats_db, seed=187).workload(
            12, 2, 3, require_predicate=True
        )
        loop = OptimizationLoop(
            CrashingLearned(), sim, stats_optimizer,
            guard=self.CrashingGuard(),
        )
        results = loop.run(workload)
        assert len(results) == 12
        assert loop.fallbacks == 4  # every 3rd choose_plan crashed
        assert loop.guard_errors == 24  # 12 decision + 12 feedback crashes
        assert sum(r.plan_source == "native:fallback" for r in results) == 4


class TestServeChaos:
    def test_chaos_workload_completes_every_query(self):
        from repro.serve import chaos_scenario

        scenario = chaos_scenario(seed=0, n_queries=80, scale=0.25)
        report = scenario.run()
        assert report.n_served == report.n_requests
        assert report.rejected == {}
        assert scenario.injector.total_injected() > 0

    def test_chaos_never_serves_a_broken_plan(self):
        from repro.serve import chaos_scenario

        scenario = chaos_scenario(seed=2, n_queries=60, scale=0.25)
        report = scenario.run()
        for outcome in report.outcomes:
            # Every served query carries a finite latency, a plan source
            # from the ladder, and a real cardinality -- injected NaN /
            # garbage estimates never surface to the client.
            assert np.isfinite(outcome.latency_ms)
            assert outcome.latency_ms >= 0.0
            assert outcome.cardinality >= 0
            assert outcome.plan_source != ""

    def test_chaos_telemetry_deterministic_across_runs(self):
        from repro.serve import chaos_scenario

        exports = []
        for _ in range(2):
            scenario = chaos_scenario(seed=5, n_queries=60, scale=0.25)
            scenario.run()
            exports.append(scenario.deployment.telemetry.to_json())
        assert exports[0] == exports[1]

    def test_breaker_trips_trigger_rollback(self):
        from repro.faults import FaultPlan, FaultSpec
        from repro.serve import chaos_scenario

        # The learned optimizer crashes on every call: the deployment
        # breaker must trip and, with the trigger armed, roll the model
        # back -- after which the run still completes natively.
        plan = FaultPlan(
            (FaultSpec(kind="exception", rate=1.0, target="learned"),),
            seed=0,
        )
        scenario = chaos_scenario(
            seed=4, n_queries=60, scale=0.25, plan=plan
        )
        # the scenario keeps the model deployed; arm the manager's trigger
        scenario.deployment.rollback_after_trips = 1
        report = scenario.run()
        assert report.n_served == report.n_requests
        assert scenario.deployment.stage.value == "rolled_back"
        events = scenario.deployment.telemetry.events("stage_transition")
        assert any("breaker_trips" in e["reason"] for e in events)

    def test_fault_counters_on_bus_match_injector(self):
        from repro.serve import chaos_scenario

        scenario = chaos_scenario(seed=6, n_queries=60, scale=0.25)
        scenario.run()
        snap = scenario.deployment.telemetry.snapshot()
        total_on_bus = sum(
            v
            for k, v in snap["counters"].items()
            if k.startswith("faults.injected.")
        )
        assert total_on_bus == scenario.injector.total_injected()
