"""Tests for repro.serve: telemetry, deployment lifecycle, runtime."""

import dataclasses
import json

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.core.errors import ConfigError, DriverError
from repro.core.framework import CandidatePlan
from repro.core.interfaces import Backend, Decision, ServePolicy
from repro.e2e import BaoOptimizer
from repro.engine import ExecutionSimulator
from repro.faults import CircuitBreaker, FaultInjector, FaultPlan, FaultSpec
from repro.optimizer import Optimizer, PlanCache
from repro.pilotscope import PilotScopeConsole, SimulatedPostgreSQL
from repro.serve import (
    ConsoleBackend,
    DeploymentManager,
    Histogram,
    Rejected,
    Request,
    RuntimeConfig,
    Served,
    ServingRuntime,
    ShardRuntime,
    Stage,
    TelemetryBus,
    adversarial_drift_scenario,
    bound_guard_scenario,
    build_schedule,
    chaos_scenario,
    injected_regression_scenario,
    parameterized_scenario,
    sharded_fabric_scenario,
    steady_state_scenario,
)
from repro.serve.fabric import (
    FabricConfig,
    SyntheticBackend,
    build_fabric_schedule,
    default_tenant_specs,
    synthetic_fabric,
    synthetic_queries,
)
from repro.serve.deployment import _PROMOTIONS, query_hash


# -- telemetry --------------------------------------------------------------------


class TestHistogram:
    def test_percentiles_and_summary(self):
        h = Histogram()
        for v in range(1, 101):
            h.record(float(v))
        s = h.summary()
        assert s["count"] == 100
        assert s["p50"] == pytest.approx(50, abs=1)
        assert s["p99"] == pytest.approx(99, abs=1)
        assert s["max"] == 100
        assert s["mean"] == pytest.approx(50.5)

    def test_decimation_keeps_stream_totals(self):
        h = Histogram(capacity=64)
        for v in range(200):
            h.record(float(v))
        s = h.summary()
        assert s["count"] == 200  # stream totals survive decimation
        assert s["max"] == 199
        assert len(h._values) <= 64

    def test_empty(self):
        assert Histogram().summary()["p99"] == 0.0


class TestTelemetryBus:
    def test_counters_histograms_events(self):
        bus = TelemetryBus()
        bus.incr("a")
        bus.incr("a", 2)
        bus.observe("lat", 5.0)
        bus.event("rollback", reason="test")
        snap = bus.snapshot()
        assert snap["counters"]["a"] == 3
        assert snap["histograms"]["lat"]["count"] == 1
        assert snap["events"] == [{"kind": "rollback", "reason": "test"}]
        assert bus.events("rollback")

    def test_snapshot_is_json_and_sorted(self):
        bus = TelemetryBus()
        bus.incr("z")
        bus.incr("a")
        text = bus.to_json()
        snap = json.loads(text)
        assert list(snap["counters"]) == ["a", "z"]

    def test_trace_capacity(self, stats_workload):
        bus = TelemetryBus(trace_capacity=2)
        for i in range(4):
            request = Request(0, i, i, 0.0, stats_workload[0])
            bus.trace(Served(request, "live", "native", 1.0, 0.0, 0))
        snap = bus.snapshot()
        assert len(snap["traces"]) == 2
        assert snap["traces_dropped"] == 2

    def test_gauges_sampled_at_snapshot(self):
        bus = TelemetryBus()
        state = {"hits": 0}
        bus.attach_gauge("cache", lambda: dict(state))
        state["hits"] = 7
        assert bus.snapshot()["gauges"]["cache"]["hits"] == 7

    def test_render_text_mentions_everything(self):
        bus = TelemetryBus()
        bus.incr("served")
        bus.observe("lat", 2.0)
        bus.event("promote", to="live")
        text = bus.render_text()
        assert "served" in text and "lat" in text and "promote" in text


# -- deployment lifecycle ----------------------------------------------------------


@pytest.fixture()
def deployment(stats_db, stats_optimizer, stats_simulator):
    learned = BaoOptimizer(stats_optimizer, seed=0)
    return DeploymentManager(
        learned,
        stats_optimizer,
        stats_simulator,
        stage=Stage.SHADOW,
        canary_fraction=0.5,
        window=10,
        min_samples=4,
        regression_threshold=1.3,
    )


class MirrorNative:
    """A 'learned' model that always proposes the native plan."""

    name = "mirror"

    def __init__(self, optimizer):
        self.optimizer = optimizer

    def choose_plan(self, query):
        return CandidatePlan(self.optimizer.plan(query), "mirror")

    def record_feedback(self, query, candidate, latency_ms):
        pass


class TestDeploymentLifecycle:
    def test_promote_path_and_invalid_transitions(self, deployment):
        assert deployment.stage is Stage.SHADOW
        assert deployment.promote() is Stage.CANARY
        assert deployment.promote() is Stage.LIVE
        with pytest.raises(ValueError):
            deployment.promote()
        deployment.auto_rollback("done")
        assert deployment.stage is Stage.ROLLED_BACK
        with pytest.raises(ValueError):
            deployment.promote()
        # Rolling back again is a no-op, not an error.
        deployment.auto_rollback("again")
        assert deployment.stage is Stage.ROLLED_BACK
        events = deployment.telemetry.events("stage_transition")
        assert [e["to_stage"] for e in events] == [
            "canary",
            "live",
            "rolled_back",
        ]

    def test_shadow_never_affects_served_plans(
        self, deployment, stats_optimizer, stats_simulator, stats_workload
    ):
        # Every shadow decision serves the native plan at the native
        # latency, while the staged model still trains on the stream.
        for q in stats_workload[:20]:
            decision = deployment.serve(q)
            assert decision.stage == "shadow"
            assert not decision.served_learned
            assert decision.plan_source == "native"
            native_latency = stats_simulator.execute(
                stats_optimizer.plan(q)
            ).latency_ms
            assert decision.latency_ms == pytest.approx(native_latency)
            assert decision.shadow_latency_ms is not None
        assert len(deployment.learned.risk_model._latencies) == 20

    def test_canary_split_is_deterministic_by_query_hash(
        self, deployment, stats_workload
    ):
        deployment.promote()
        sides = [deployment.is_canary_query(q) for q in stats_workload]
        assert sides == [deployment.is_canary_query(q) for q in stats_workload]
        assert any(sides) and not all(sides)  # 0.5 fraction splits both ways

    def test_canary_native_side_untouched(self, deployment, stats_workload):
        deployment.promote()
        native_side = [
            q for q in stats_workload if not deployment.is_canary_query(q)
        ]
        decision = deployment.serve(native_side[0])
        assert not decision.served_learned
        assert decision.plan_source == "native"
        assert decision.native_latency_ms is None  # no baseline re-run

    def test_guard_on_serving_path(
        self, stats_db, stats_optimizer, stats_simulator, stats_workload
    ):
        class VetoAll:
            decisions = 0
            interventions = 0

            def __call__(self, query, candidate, native_plan):
                VetoAll.decisions += 1
                if candidate.plan.signature() != native_plan.signature():
                    VetoAll.interventions += 1
                    return CandidatePlan(plan=native_plan, source="veto")
                return candidate

            def record(self, query, candidate, latency_ms, native_latency_ms):
                pass

            def record_native(self, query, native_plan, native_latency_ms):
                pass

            @property
            def intervention_rate(self):
                return 0.0

        manager = DeploymentManager(
            BaoOptimizer(stats_optimizer, seed=0),
            stats_optimizer,
            stats_simulator,
            guards=(VetoAll(),),
            stage=Stage.LIVE,
            window=30,
            min_samples=30,
        )
        for q in stats_workload[:15]:
            decision = manager.serve(q)
            assert decision.served_learned
            # The guard pinned serving to the native plan, so there is
            # never a regression against the baseline.
            assert decision.regression == pytest.approx(1.0)
        assert VetoAll.decisions == 15

    def test_injected_regression_rolls_back_with_event(self):
        scenario = injected_regression_scenario(n_sessions=8)
        scenario.run()
        assert scenario.deployment.stage is Stage.ROLLED_BACK
        snap = scenario.deployment.telemetry.snapshot()
        rollbacks = [
            e
            for e in snap["events"]
            if e["kind"] == "stage_transition"
            and e["to_stage"] == "rolled_back"
        ]
        assert len(rollbacks) == 1
        assert "regression_window" in rollbacks[0]["reason"]
        assert snap["counters"]["deployment.auto_rollbacks"] == 1
        # After rollback everything is served native again.
        post = [
            t
            for t in snap["traces"]
            if t["outcome"] == "served" and t["stage"] == "rolled_back"
        ]
        assert post and all(t["plan_source"] == "native" for t in post)

    def test_auto_promote_on_healthy_window(
        self, stats_optimizer, stats_simulator, stats_workload
    ):
        manager = DeploymentManager(
            MirrorNative(stats_optimizer),
            stats_optimizer,
            stats_simulator,
            stage=Stage.SHADOW,
            window=6,
            min_samples=3,
            auto_promote=True,
        )
        for q in stats_workload[:12]:
            manager.serve(q)
        assert manager.stage in (Stage.CANARY, Stage.LIVE)


    def test_deploy_invalidates_plan_cache(
        self, stats_optimizer, stats_simulator, stats_workload
    ):
        """deploy() is a stage change like any other: plans cached under
        the previous model's stage must not serve the next one's."""
        cache = PlanCache()
        manager = DeploymentManager(
            BaoOptimizer(stats_optimizer, seed=0),
            stats_optimizer,
            stats_simulator,
            stage=Stage.LIVE,
            plan_cache=cache,
        )
        query = stats_workload[0]
        manager.serve(query)
        manager.serve(query)
        warm = cache.stats()
        assert warm["entries"] >= 1 and warm["hits"] >= 1
        manager.deploy(BaoOptimizer(stats_optimizer, seed=1), version="v1")
        assert manager.stage is Stage.SHADOW
        assert cache.stats()["invalidations"] == warm["invalidations"] + 1
        manager.serve(query)
        after = cache.stats()
        assert after["misses"] == warm["misses"] + 1
        assert after["hits"] == warm["hits"]


# -- serve-path policies ----------------------------------------------------------


class RecordingPolicy(ServePolicy):
    """A policy the deployment module has never heard of."""

    def __init__(self, name, log, rollback_at=None):
        self.name = name
        self.log = log  # shared across policies: (policy, queries_served)
        self.rollback_at = rollback_at
        self.decisions = 0
        self.transitions = []

    def attach(self, deployment):
        deployment.telemetry.attach_gauge(
            self.name, lambda: {"decisions": self.decisions}
        )

    def on_decision(self, deployment, decision):
        self.decisions += 1
        self.log.append((self.name, deployment.queries_served))
        if self.decisions == self.rollback_at:
            deployment.auto_rollback(f"{self.name} says so")

    def on_transition(self, deployment, stage, reason):
        assert deployment.stage is stage
        self.transitions.append((stage, reason))


class TestServePolicies:
    def test_every_decision_once_in_list_order(self, deployment, stats_workload):
        log = []
        first, second = RecordingPolicy("first", log), RecordingPolicy("second", log)
        deployment.add_policy(first)
        deployment.add_policy(second)
        for q in stats_workload[:4]:
            deployment.serve(q)
        assert log == [(p, n) for n in (1, 2, 3, 4) for p in ("first", "second")]

    def test_on_transition_sees_every_stage_change(self, deployment, stats_optimizer):
        policy = RecordingPolicy("p", [])
        deployment.add_policy(policy)
        deployment.promote()
        deployment.promote()
        deployment.auto_rollback("monitor")
        deployment.deploy(BaoOptimizer(stats_optimizer, seed=1), version="v1", reason="retrained")
        assert policy.transitions == [
            (Stage.CANARY, "promote"),
            (Stage.LIVE, "promote"),
            (Stage.ROLLED_BACK, "monitor"),
            (Stage.SHADOW, "retrained"),
        ]
        counters = deployment.telemetry.snapshot()["counters"]
        assert counters["deployment.auto_rollbacks"] == 1

    def test_policy_rolls_back_and_later_policies_still_run(
        self, deployment, stats_workload
    ):
        log = []
        monitor = RecordingPolicy("monitor", log, rollback_at=2)
        after = RecordingPolicy("after", log)
        deployment.add_policy(monitor)
        deployment.add_policy(after)
        deployment.promote()
        decisions = [deployment.serve(q) for q in stats_workload[:4]]
        assert deployment.stage is Stage.ROLLED_BACK
        assert [d.stage for d in decisions] == [
            "canary", "canary", "rolled_back", "rolled_back"
        ]
        snap = deployment.telemetry.snapshot()
        assert snap["counters"]["deployment.auto_rollbacks"] == 1
        assert after.decisions == 4
        assert after.transitions[-1] == (Stage.ROLLED_BACK, "monitor says so")

    def test_auto_rollback_only_demotes_a_serving_model(self, deployment):
        deployment.auto_rollback("nothing is served learned in shadow")
        assert deployment.stage is Stage.SHADOW
        assert "deployment.auto_rollbacks" not in (
            deployment.telemetry.snapshot()["counters"]
        )

    def test_add_policy_after_construction_attaches_gauge(
        self, deployment, stats_workload
    ):
        deployment.add_policy(RecordingPolicy("late", []))
        deployment.serve(stats_workload[0])
        assert deployment.telemetry.snapshot()["gauges"]["late"] == {"decisions": 1}



#: each canned scenario's deployment: stage, canary fraction, window, min
#: samples, regression threshold, native monitoring, per-call budget,
#: rollback trips, plan cache, breaker and policy types in order
SCENARIO_DEPLOYMENTS = {
    "steady_state": (
        lambda: steady_state_scenario(scale=0.1, n_queries=8),
        (Stage.CANARY, 0.5, 40, 15, 2.5, True, None, 3, False, None, ["RetrainCadence"]),
    ),
    "parameterized": (
        lambda: parameterized_scenario(scale=0.1),
        (Stage.SHADOW, 0.5, 40, 15, 2.5, True, None, 3, True, None, ["RetrainCadence"]),
    ),
    "injected_regression": (
        lambda: injected_regression_scenario(scale=0.1),
        (Stage.CANARY, 1.0, 16, 8, 1.3, True, None, 3, False, None, ["RetrainCadence"]),
    ),
    "chaos": (
        lambda: chaos_scenario(scale=0.1, n_queries=8),
        (Stage.CANARY, 0.5, 40, 15, 3.0, True, 200.0, None, False, "learned", ["RetrainCadence"]),
    ),
    "bound_guard": (
        lambda: bound_guard_scenario(scale=0.1, n_queries=8),
        (Stage.CANARY, 0.5, 40, 15, 3.0, True, None, 3, False, None, ["RetrainCadence", "BoundGuard"]),
    ),
    "adversarial_drift": (
        lambda: adversarial_drift_scenario(pessimistic=True, scale=0.1, n_queries=8),
        (Stage.LIVE, 0.1, 40, 15, 1.3, False, None, 3, False, None, []),
    ),
    "sharded_fabric": (
        lambda: sharded_fabric_scenario(n_shards=1, scale=0.1, n_queries=8),
        (Stage.CANARY, 0.5, 40, 15, 3.0, True, None, 3, True, None, ["RetrainCadence", "BoundGuard"]),
    ),
}


@pytest.mark.parametrize("name", sorted(SCENARIO_DEPLOYMENTS))
def test_scenario_deployment_settings(name):
    """Every canned scenario stages its model with the settings it always
    had: a builder that drops a keyword falls back to a default and fails."""
    build, expected = SCENARIO_DEPLOYMENTS[name]
    scenario = build()
    if name == "sharded_fabric":
        (shard,) = scenario.fabric.shards
        deployment = shard.backend
    else:
        deployment = scenario.deployment
        assert scenario.plan_cache is deployment.plan_cache
    d = deployment
    assert (
        d.stage,
        d.canary_fraction,
        d.window,
        d.min_samples,
        d.regression_threshold,
        d.monitor_native,
        d.call_timeout_ms,
        d.rollback_after_trips,
        d.plan_cache is not None,
        None if d.breaker is None else d.breaker.name,
        [type(p).__name__ for p in d.policies],
    ) == expected


def test_stage_only_moves_along_declared_edges(
    stats_optimizer, stats_simulator, stats_workload
):
    """No sequence of promotions, policy rollbacks, redeployments and
    traffic reaches an undeclared stage transition, and none bypasses
    ``on_transition``: promotion one step up, demotion only from a stage
    that serves learned plans, ``deploy`` to the stage it names."""

    class Crashing(MirrorNative):
        """Trips the breaker: the manager's own auto-rollback (the mirror
        model's healthy window drives auto-promotion)."""

        name = "crashing"

        def choose_plan(self, query):
            raise RuntimeError("model down")

    class EdgeChecker(ServePolicy):
        def __init__(self, start):
            self.at = start
            self.deploying_to = None

        def on_transition(self, deployment, stage, reason):
            allowed = {_PROMOTIONS.get(self.at), self.deploying_to}
            if self.at in (Stage.CANARY, Stage.LIVE):
                allowed.add(Stage.ROLLED_BACK)
            assert stage in allowed, (self.at, stage, reason)
            self.at = stage

    class StageMachine(RuleBasedStateMachine):
        def __init__(self):
            super().__init__()
            self.checker = EdgeChecker(Stage.SHADOW)
            self.manager = DeploymentManager(
                MirrorNative(stats_optimizer),
                stats_optimizer,
                stats_simulator,
                window=3,
                min_samples=2,
                auto_promote=True,
                breaker=CircuitBreaker(failure_threshold=1, cooldown_ms=0.0),
                rollback_after_trips=1,
                policies=[self.checker],
            )

        @rule()
        def promote(self):
            if self.manager.stage in _PROMOTIONS:
                self.manager.promote()
            else:
                with pytest.raises(ConfigError):
                    self.manager.promote()

        @rule()
        def auto_rollback(self):
            self.manager.auto_rollback("monitor")

        @rule(model=st.sampled_from([MirrorNative, Crashing]))
        def deploy(self, model):
            self.checker.deploying_to = Stage.SHADOW
            self.manager.deploy(model(stats_optimizer), version=model.__name__)
            self.checker.deploying_to = None

        @rule(i=st.integers(0, 7))
        def serve(self, i):
            self.manager.serve(stats_workload[i])

        @invariant()
        def every_change_went_through_the_hook(self):
            assert self.checker.at is self.manager.stage

    run_state_machine_as_test(
        StageMachine,
        settings=settings(max_examples=40, stateful_step_count=25, deadline=None),
    )


# -- runtime ----------------------------------------------------------------------


class FixedBackend:
    """Constant-latency backend for admission-control unit tests."""

    name = "fixed"
    telemetry = None
    plan_cache = None

    def __init__(self, latency_ms: float) -> None:
        self.latency_ms = latency_ms
        self.served = 0

    def cache_stats(self):
        return None

    def serve(self, query):
        self.served += 1
        return Decision("live", "native", self.latency_ms, 1)


class TestBuildSchedule:
    def test_deterministic_and_round_robin(self, stats_workload):
        a = build_schedule(stats_workload, 4, seed=1)
        b = build_schedule(stats_workload, 4, seed=1)
        assert a == b
        assert sum(len(s) for s in a) == len(stats_workload)
        # Round-robin assignment: session i gets queries i, i+4, ...
        assert a[1][0].query == stats_workload[1]
        # Global sequence is a permutation ordered by arrival time.
        flat = sorted(
            (r for sess in a for r in sess), key=lambda r: r.global_seq
        )
        arrivals = [r.arrival_ms for r in flat]
        assert arrivals == sorted(arrivals)
        assert [r.global_seq for r in flat] == list(range(len(flat)))

    def test_seed_changes_schedule(self, stats_workload):
        assert build_schedule(stats_workload, 4, seed=1) != build_schedule(
            stats_workload, 4, seed=2
        )


class TestServingRuntime:
    def test_all_served_when_unconstrained(self, stats_workload):
        backend = FixedBackend(latency_ms=5.0)
        runtime = ServingRuntime(
            backend, config=RuntimeConfig(timeout_ms=None, queue_capacity=None)
        )
        schedule = build_schedule(stats_workload, 8, seed=0)
        report = runtime.run(schedule)
        assert report.n_served == report.n_requests == len(stats_workload)
        assert report.rejected == {}
        assert backend.served == len(stats_workload)
        assert report.simulated_qps > 0 and report.wall_qps > 0
        # Outcomes come back sorted by (session, seq).
        keys = [
            (o.request.session_id, o.request.seq) for o in report.outcomes
        ]
        assert keys == sorted(keys)

    def test_timeout_shedding_is_typed_and_deterministic(self, stats_workload):
        # 200 ms of service per request against ~2 ms interarrival: queues
        # explode, so almost everything past the first request per session
        # times out -- identically on every run.
        def run_once():
            backend = FixedBackend(latency_ms=200.0)
            runtime = ServingRuntime(
                backend,
                config=RuntimeConfig(timeout_ms=50.0, queue_capacity=None),
            )
            schedule = build_schedule(
                stats_workload, 2, seed=0, mean_interarrival_ms=2.0
            )
            return runtime.run(schedule)

        first, second = run_once(), run_once()
        assert first.rejected.get("timeout", 0) > 0
        assert first.rejected == second.rejected
        shed = [o for o in first.outcomes if isinstance(o, Rejected)]
        assert all(o.reason == "timeout" for o in shed)
        assert all(o.wait_ms > 50.0 for o in shed)

    def test_queue_capacity_shedding(self, stats_workload):
        backend = FixedBackend(latency_ms=100.0)
        runtime = ServingRuntime(
            backend,
            config=RuntimeConfig(timeout_ms=None, queue_capacity=2),
        )
        schedule = build_schedule(
            stats_workload, 2, seed=0, mean_interarrival_ms=2.0
        )
        report = runtime.run(schedule)
        assert report.rejected.get("queue_full", 0) > 0
        assert report.n_served + sum(report.rejected.values()) == report.n_requests

    def test_max_in_flight_shedding(self, stats_workload):
        backend = FixedBackend(latency_ms=50.0)
        runtime = ServingRuntime(
            backend,
            config=RuntimeConfig(
                timeout_ms=None, queue_capacity=None, max_in_flight=1
            ),
        )
        schedule = build_schedule(
            stats_workload, 4, seed=0, mean_interarrival_ms=2.0
        )
        report = runtime.run(schedule)
        assert report.rejected.get("overload", 0) > 0

    def test_rejections_reach_telemetry(self, stats_workload):
        backend = FixedBackend(latency_ms=200.0)
        runtime = ServingRuntime(
            backend, config=RuntimeConfig(timeout_ms=50.0)
        )
        schedule = build_schedule(
            stats_workload, 2, seed=0, mean_interarrival_ms=2.0
        )
        report = runtime.run(schedule)
        snap = runtime.telemetry.snapshot()
        assert snap["counters"]["runtime.rejected.timeout"] == report.rejected[
            "timeout"
        ]
        assert any(t["outcome"] == "timeout" for t in snap["traces"])

    def test_backend_errors_propagate(self, stats_workload):
        class Exploding(FixedBackend):
            def serve(self, query):
                raise RuntimeError("boom")

        runtime = ServingRuntime(
            Exploding(1.0), config=RuntimeConfig(timeout_ms=None)
        )
        with pytest.raises(RuntimeError, match="boom"):
            runtime.run(build_schedule(stats_workload[:4], 2, seed=0))

    def test_hooks_run_at_global_seq(self, stats_workload):
        backend = FixedBackend(latency_ms=1.0)
        seen = []
        runtime = ServingRuntime(
            backend,
            config=RuntimeConfig(timeout_ms=None, queue_capacity=None),
            hooks={5: lambda: seen.append(backend.served)},
        )
        runtime.run(build_schedule(stats_workload[:10], 4, seed=0))
        assert seen == [5]  # exactly 5 requests served before the hook

    def test_console_backend(self, stats_db):
        from repro.pilotscope import PilotScopeConsole, SimulatedPostgreSQL
        from repro.sql import WorkloadGenerator

        console = PilotScopeConsole(SimulatedPostgreSQL(stats_db))
        runtime = ServingRuntime(
            ConsoleBackend(console),
            config=RuntimeConfig(timeout_ms=None, queue_capacity=None),
        )
        queries = WorkloadGenerator(stats_db, seed=2).workload(
            12, 1, 3, require_predicate=True
        )
        report = runtime.run(build_schedule(queries, 3, seed=0))
        assert report.n_served == 12
        assert console.queries_served == 12
        served = [o for o in report.outcomes if isinstance(o, Served)]
        assert all(o.plan_source == "native" for o in served)

    def test_console_backend_does_not_read_the_bounded_log(self, stats_db):
        """``plan_source`` is who served the query, whatever the console's
        log retention: ``max_log_entries=0`` keeps no entry to read back."""
        from repro.cardest import HistogramEstimator
        from repro.pilotscope import CardinalityInjectionDriver
        from repro.sql import WorkloadGenerator

        queries = WorkloadGenerator(stats_db, seed=2).workload(
            4, 1, 3, require_predicate=True
        )

        def serve(console):
            runtime = ServingRuntime(
                ConsoleBackend(console),
                config=RuntimeConfig(timeout_ms=None, queue_capacity=None),
            )
            report = runtime.run(build_schedule(queries, 2, seed=0))
            assert report.n_served == 4 and len(console.query_log) == 0
            return {o.plan_source for o in report.outcomes}

        console = PilotScopeConsole(SimulatedPostgreSQL(stats_db), max_log_entries=0)
        assert serve(console) == {"native"}
        driver = CardinalityInjectionDriver(HistogramEstimator(stats_db))
        console.register_driver(driver)
        console.start_driver(driver.name)
        assert serve(console) == {driver.name}


# -- one admission contract, both drivers ------------------------------------------


def _requests(query, arrivals):
    return [
        Request(session_id=0, seq=i, global_seq=i, arrival_ms=float(a), query=query)
        for i, a in enumerate(arrivals)
    ]


def _drive_run(backend, requests, **core):
    """Pinned lanes: the requests as a one-session schedule through run()."""
    runtime = ServingRuntime(backend, **core)
    return runtime, lambda: runtime.run([requests]).outcomes


def _drive_submit(backend, requests, *, config, breaker=None):
    """Earliest-free lane: a one-worker shard, one submit() per request."""
    shard = ShardRuntime(0, backend, config=config, telemetry=None, n_workers=1, breaker=breaker)
    return shard, lambda: [shard.submit(r) for r in requests]


def _reasons(outcomes):
    return [getattr(o, "reason", "served") for o in outcomes]


@pytest.mark.parametrize(
    "field", ["timeout_ms", "queue_capacity", "max_in_flight"]
)
def test_runtime_config_rejects_a_negative_threshold(field):
    # -1 would silently reject every request (timeout / queue_full /
    # overload); 0 and None stay valid
    with pytest.raises(ConfigError, match=field):
        RuntimeConfig(**{field: -1})
    assert getattr(RuntimeConfig(**{field: 0}), field) == 0
    assert getattr(RuntimeConfig(**{field: None}), field) is None


@pytest.mark.parametrize("drive", [_drive_run, _drive_submit])
class TestAdmissionContract:
    """Every rule of the admission table, through both drivers."""

    def test_timeout_boundary(self, drive, stats_workload):
        # 10 ms service: waits are 0, 6 (== timeout: admitted), 7 (> timeout)
        _, go = drive(
            FixedBackend(10.0),
            _requests(stats_workload[0], [0, 4, 13]),
            config=RuntimeConfig(timeout_ms=6.0, queue_capacity=None),
        )
        outcomes = go()
        assert _reasons(outcomes) == ["served", "served", "timeout"]
        assert [o.wait_ms for o in outcomes] == [0.0, 6.0, 7.0]

    def test_queue_capacity_boundary(self, drive, stats_workload):
        # in_flight at arrival is 0, 1 (== capacity: admitted), 2 (> capacity)
        _, go = drive(
            FixedBackend(10.0),
            _requests(stats_workload[0], [0, 1, 2]),
            config=RuntimeConfig(timeout_ms=None, queue_capacity=1),
        )
        assert _reasons(go()) == ["served", "served", "queue_full"]

    def test_max_in_flight_boundary(self, drive, stats_workload):
        # in_flight at arrival is 0, 1, 2 (== max_in_flight: refused), and
        # the request after the backlog drains is admitted again
        _, go = drive(
            FixedBackend(10.0),
            _requests(stats_workload[0], [0, 1, 2, 50]),
            config=RuntimeConfig(
                timeout_ms=None, queue_capacity=None, max_in_flight=2
            ),
        )
        assert _reasons(go()) == ["served", "served", "overload", "served"]

    def test_max_in_flight_zero_refuses_everything(self, drive, stats_workload):
        backend = FixedBackend(10.0)
        runtime, go = drive(
            backend,
            _requests(stats_workload[0], [0, 100, 200]),
            config=RuntimeConfig(max_in_flight=0),
        )
        assert _reasons(go()) == ["overload"] * 3
        assert backend.served == 0 and runtime.served == 0

    def test_driver_error_is_typed_and_feeds_breaker(self, drive, stats_workload):
        class Flaky(FixedBackend):
            def serve(self, query):
                raise DriverError("connection lost")

        breaker = CircuitBreaker(failure_threshold=2, cooldown_ms=1_000.0)
        runtime, go = drive(
            Flaky(1.0),
            _requests(stats_workload[0], [0, 1, 2]),
            config=RuntimeConfig(timeout_ms=None, queue_capacity=None),
            breaker=breaker,
        )
        # two failures trip the breaker; the third request meets it open
        assert _reasons(go()) == ["error", "error", "shard_open"]
        assert runtime.errors == 2 and breaker.trips == 1
        counters = runtime.telemetry.snapshot()["counters"]
        assert counters["runtime.rejected.error"] == 2
        assert counters["runtime.rejected.shard_open"] == 1

    def test_open_breaker_sheds_until_cooldown(self, drive, stats_workload):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_ms=100.0)
        breaker.record_failure()  # OPEN at virtual t=0
        backend = FixedBackend(1.0)
        _, go = drive(
            backend,
            _requests(stats_workload[0], [10, 99, 100]),
            config=RuntimeConfig(timeout_ms=None, queue_capacity=None),
            breaker=breaker,
        )
        # the breaker's clock follows arrivals: cooldown elapses at t=100
        assert _reasons(go()) == ["shard_open", "shard_open", "served"]
        assert backend.served == 1 and breaker.would_allow(100.0)

    def test_other_exceptions_propagate_as_themselves(self, drive, stats_workload):
        class ThirdTimeUnlucky(FixedBackend):
            def serve(self, query):
                if self.served == 2:
                    raise RuntimeError("boom")
                return super().serve(query)

        runtime, go = drive(
            ThirdTimeUnlucky(1.0),
            _requests(stats_workload[0], [0, 10, 20, 30]),
            config=RuntimeConfig(timeout_ms=None, queue_capacity=None),
        )
        with pytest.raises(RuntimeError, match="boom"):
            go()
        # everything before the failure is on the bus; nothing after it ran
        snap = runtime.telemetry.snapshot()
        assert snap["counters"] == {"runtime.served": 2}
        assert [t["seq"] for t in snap["traces"]] == [0, 1]


class TestOneCore:
    def test_run_and_submit_are_the_same_path(self, stats_workload):
        """A one-session schedule through run() and the same requests
        through submit() on a one-worker shard: equal outcomes, equal
        trace records (a mix of served, timeout and queue_full)."""
        (session,) = build_schedule(
            stats_workload, 1, seed=3, mean_interarrival_ms=4.0
        )
        config = RuntimeConfig(timeout_ms=20.0, queue_capacity=2, max_in_flight=6)
        runtime, run = _drive_run(FixedBackend(9.0), session, config=config)
        shard, submit = _drive_submit(FixedBackend(9.0), session, config=config)
        outcomes = run()
        assert outcomes == submit()
        assert {"served", "timeout", "queue_full"} <= set(_reasons(outcomes))
        traces = runtime.telemetry.snapshot()["traces"]
        assert traces == shard.telemetry.snapshot()["traces"]
        assert len(traces) == len(session)

    def test_latency_filed_once_per_served_request(self, stats_workload):
        """The core files ``latency_ms`` unless the backend already does so
        on the same bus -- never twice, never zero times."""

        class SelfReporting(FixedBackend):
            def __init__(self, latency_ms, bus):
                super().__init__(latency_ms)
                self.telemetry = bus

            def serve(self, query):
                self.telemetry.observe("latency_ms", self.latency_ms)
                return super().serve(query)

        requests = _requests(stats_workload[0], range(0, 60, 10))
        config = RuntimeConfig(timeout_ms=None, queue_capacity=None)
        for backend, bus in (
            (FixedBackend(2.0), None),  # backend has no bus: the core files
            (SelfReporting(2.0, TelemetryBus()), None),  # shared: backend files
            (SelfReporting(2.0, TelemetryBus()), TelemetryBus()),  # separate
        ):
            runtime = ServingRuntime(backend, config=config, telemetry=bus)
            runtime.run([requests])
            summary = runtime.telemetry.histogram_summary("latency_ms")
            assert summary["count"] == runtime.served == len(requests)

    def test_full_stack_shard_latency_count(self):
        """Regression: a shard sharing its bus with a DeploymentManager
        used to hold 2x served samples in ``latency_ms``."""
        scenario = sharded_fabric_scenario(
            n_shards=2, scale=0.2, seed=1, n_queries=24
        )
        report = scenario.run()
        assert report.n_served > 0
        for shard in scenario.fabric.shards:
            count = shard.telemetry.histogram_summary("latency_ms")["count"]
            assert count == shard.served


# -- Backend protocol conformance --------------------------------------------------


def _deployment(db):
    native = Optimizer(db)
    return DeploymentManager(
        BaoOptimizer(native, seed=0), native, ExecutionSimulator(db)
    )


_BACKENDS = {
    "deployment": _deployment,
    "console": lambda db: ConsoleBackend(PilotScopeConsole(SimulatedPostgreSQL(db))),
    "synthetic": lambda db: SyntheticBackend(seed=1),
    "faulty": lambda db: FaultInjector(
        FaultPlan((FaultSpec(kind="latency", rate=1.0, target="backend", magnitude=7.0),)),
        telemetry=TelemetryBus(),
    ).wrap_backend(SyntheticBackend(seed=1)),
}


@pytest.mark.parametrize("kind", sorted(_BACKENDS))
def test_backend_conformance(kind, stats_db, stats_workload):
    backend = _BACKENDS[kind](stats_db)
    assert isinstance(backend, Backend)
    assert isinstance(backend.name, str)
    assert backend.telemetry is None or isinstance(backend.telemetry, TelemetryBus)
    assert backend.plan_cache is None or isinstance(backend.plan_cache, PlanCache)
    stats = backend.cache_stats()
    assert stats is None or {"hits", "misses"} <= set(stats)
    decision = backend.serve(stats_workload[0])
    assert isinstance(decision, Decision)
    assert decision.latency_ms >= 0 and decision.cardinality >= 0
    # FaultyBackend rewrites decisions with dataclasses.replace
    slower = dataclasses.replace(decision, latency_ms=decision.latency_ms + 1.0)
    assert type(slower) is type(decision)
    assert slower.cardinality == decision.cardinality
    # ... and perf/'s checker self-test corrupts one the same way
    wrong = dataclasses.replace(decision, cardinality=decision.cardinality + 1)
    assert (wrong.cardinality, wrong.latency_ms) == (
        decision.cardinality + 1, decision.latency_ms
    )
    # and any backend drops into the core as-is
    runtime = ServingRuntime(backend, config=RuntimeConfig(timeout_ms=None))
    assert _reasons(runtime.run([_requests(stats_workload[1], [0])]).outcomes) == [
        "served"
    ]


class TestAcceptanceDeterminism:
    def test_byte_identical_snapshots_8_sessions(self):
        """Same seed + same config => byte-identical snapshot(), twice."""

        def run_once():
            scenario = steady_state_scenario(n_queries=64, n_sessions=8, seed=7)
            scenario.run()
            return scenario.deployment.telemetry.to_json()

        assert run_once() == run_once()


def _expected_row(outcome) -> dict:
    """The export row of an outcome, written out from its fields."""
    request = outcome.request
    row = {
        "session_id": request.session_id,
        "seq": request.seq,
        "query_hash": query_hash(request.query),
        "estimator_tag": outcome.estimator_tag,
        "wait_ms": outcome.wait_ms,
    }
    if isinstance(outcome, Served):
        row.update(
            outcome="served",
            stage=outcome.stage,
            plan_source=outcome.plan_source,
            latency_ms=outcome.latency_ms,
            cache_hits=outcome.cache_hits,
            cache_misses=outcome.cache_misses,
            audit=outcome.audit,
        )
    else:
        # What perf/run.py tells the two classes apart by.
        assert not hasattr(outcome, "cardinality")
        row.update(
            outcome=outcome.reason, stage="", plan_source="", latency_ms=0.0,
            cache_hits=0, cache_misses=0, audit="",
        )
    return row


class TestTheOutcomeIsTheTrace:
    """What ``submit`` returned is what the bus keeps and exports."""

    def test_submit_files_the_object_it_returns(self, stats_workload):
        class Recording(TelemetryBus):
            def __init__(self):
                super().__init__()
                self.traced = []

            def trace(self, outcome):
                self.traced.append(outcome)
                super().trace(outcome)

        bus = Recording()
        runtime = ServingRuntime(
            FixedBackend(latency_ms=200.0),
            config=RuntimeConfig(timeout_ms=50.0),
            telemetry=bus,
        )
        schedule = build_schedule(stats_workload[:24], 2, seed=0, mean_interarrival_ms=2.0)
        by_arrival = sorted(runtime.run(schedule).outcomes, key=lambda o: o.request.global_seq)
        assert {type(o) for o in by_arrival} == {Served, Rejected}
        assert len(bus.traced) == len(by_arrival)
        assert all(a is b for a, b in zip(bus.traced, by_arrival))

    def test_runtime_export_rows_are_the_returned_outcomes(self):
        scenario = steady_state_scenario(
            n_queries=64,
            n_sessions=8,
            seed=7,
            config=RuntimeConfig(timeout_ms=10.0, queue_capacity=2, max_in_flight=4),
            audit_every=4,
        )
        report = scenario.run()
        assert report.rejected and report.n_served
        exported = json.loads(scenario.runtime.telemetry.to_json())["traces"]
        assert exported == [_expected_row(o) for o in report.outcomes]
        assert {row["estimator_tag"] for row in exported} == {scenario.deployment.name}
        assert any(row["audit"] for row in exported)
        assert any(row["cache_hits"] or row["cache_misses"] for row in exported)

    def test_fabric_export_rows_are_the_outcomes_that_reached_a_shard(self):
        specs = default_tenant_specs(6)
        scenario = synthetic_fabric(
            4,
            specs,
            seed=5,
            n_workers=1,
            shard_config=RuntimeConfig(timeout_ms=20.0, queue_capacity=2),
            fabric_config=FabricConfig(seed=5, background_shed_backlog=1, batch_shed_backlog=2),
        )
        schedule = build_fabric_schedule(
            synthetic_queries(200, seed=5), specs, seed=5, mean_interarrival_ms=0.5
        )
        report = scenario.fabric.run(schedule)
        at_fabric = {"quota", "unavailable", "qos_shed"}
        reached = [o for o in report.outcomes if getattr(o, "reason", "") not in at_fabric]
        assert len(reached) < len(report.outcomes)  # some never reached a shard
        assert {type(o) for o in reached} == {Served, Rejected}
        export = json.loads(scenario.fabric.export_json(include_traces=True))
        assert export["traces_dropped"] == 0
        reached.sort(key=lambda o: (o.request.session_id, o.request.seq))
        assert export["traces"] == [_expected_row(o) for o in reached]


class TestExportWithoutTraces:
    """An export without traces is the full export less its ``traces``
    key, and renders no trace row on the way."""

    @staticmethod
    def _fabric():
        specs = default_tenant_specs(6)
        scenario = synthetic_fabric(
            4,
            specs,
            seed=5,
            n_workers=1,
            shard_config=RuntimeConfig(timeout_ms=20.0, queue_capacity=2),
            fabric_config=FabricConfig(seed=5),
        )
        scenario.fabric.run(
            build_fabric_schedule(synthetic_queries(300, seed=5), specs, seed=5, mean_interarrival_ms=0.5)
        )
        return scenario.fabric

    def test_fabric_export(self):
        fabric = self._fabric()
        full = json.loads(fabric.export_json(include_traces=True))
        assert len(full.pop("traces")) > 100
        assert json.loads(fabric.export_json()) == full

    def test_runtime_export(self):
        scenario = steady_state_scenario(n_queries=48, n_sessions=4, seed=7)
        scenario.run()
        bus = scenario.runtime.telemetry
        full = json.loads(bus.to_json())
        assert len(full.pop("traces")) == 48
        assert json.loads(bus.to_json(include_traces=False)) == full

    def test_no_trace_row_is_rendered(self):
        class Unrendered:
            def trace_row(self):
                raise AssertionError("a trace row nobody exports was rendered")

        bus = TelemetryBus()
        bus.incr("runtime.served")
        bus.trace(Unrendered())
        assert json.loads(bus.to_json(include_traces=False))["counters"] == {"runtime.served": 1}
        assert "runtime.served: 1" in bus.render_text()

    def test_render_text_is_unchanged(self, stats_workload):
        bus = TelemetryBus(trace_capacity=1)
        bus.incr("runtime.served", 2)
        bus.incr("runtime.rejected.timeout")
        for value in (1.0, 2.0, 4.0):
            bus.observe("latency_ms", value)
        bus.attach_gauge("cache", lambda: {"misses": 3.0, "hits": 1.5})
        bus.event("promote", to_stage="live", window=4)
        for seq in range(2):
            request = Request(0, seq, seq, 0.0, stats_workload[0])
            bus.trace(Served(request, "live", "native", 1.0, 0.0, 0))
        assert bus.render_text() == "\n".join(
            [
                "-- telemetry --",
                "runtime.rejected.timeout: 1",
                "runtime.served: 2",
                "latency_ms: n=3 mean=2.33 p50=2.00 p95=4.00 p99=4.00 max=4.00",
                "cache: hits=1.5 misses=3",
                "event[promote]: to_stage=live window=4",
                "traces dropped: 1",
            ]
        )


class TestQueryHash:
    def test_stable_across_equal_queries(self, stats_workload):
        q = stats_workload[0]
        assert query_hash(q) == query_hash(q)
        assert len(query_hash(q)) == 12
