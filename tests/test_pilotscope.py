"""Tests for the PilotScope middleware: sessions, console, drivers."""

import pytest

from repro.cardest import HistogramEstimator
from repro.optimizer import HintSet
from repro.pilotscope import (
    BaoDriver,
    CardinalityInjectionDriver,
    LeroDriver,
    PilotScopeConsole,
    SimulatedPostgreSQL,
)
from repro.sql import Query, WorkloadGenerator


@pytest.fixture(scope="module")
def pg(stats_db):
    return SimulatedPostgreSQL(stats_db)


@pytest.fixture(scope="module")
def workload(stats_db):
    return WorkloadGenerator(stats_db, seed=100).workload(
        25, 1, 3, require_predicate=True
    )


class TestSubqueryEnumeration:
    def test_covers_connected_subsets(self, workload):
        q = next(q for q in workload if q.n_tables >= 2)
        subs = q.connected_subqueries()
        assert Query(q.tables, q.joins, q.predicates) in subs
        for t in q.tables:
            assert any(s.tables == (t,) for s in subs)
        for s in subs:
            assert s.is_connected()


class TestSession:
    def test_push_cardinalities_changes_planning(self, pg, workload):
        q = next(q for q in workload if q.n_tables >= 2)
        with pg.open_session() as session:
            default_plan = session.pull_plan(q)
            # Inject absurd cardinalities for one side to flip decisions.
            subs = session.pull_subqueries(q)
            session.push_cardinalities({s.to_sql(): 1.0 for s in subs})
            injected_plan = session.pull_plan(q)
        assert default_plan.root.tables == injected_plan.root.tables

    def test_push_hint_respected(self, pg, workload):
        q = next(q for q in workload if q.n_tables >= 2)
        with pg.open_session() as session:
            session.push_hint_set(HintSet(enable_hash_join=False, enable_merge_join=False))
            plan = session.pull_plan(q)
        from repro.engine import JoinMethod

        for node in plan.join_nodes():
            assert node.method is JoinMethod.NESTED_LOOP

    def test_push_scale_validates(self, pg):
        with pg.open_session() as session:
            with pytest.raises(ValueError):
                session.push_cardinality_scale(-1.0)

    def test_push_config_unknown_key(self, pg):
        with pg.open_session() as session:
            with pytest.raises(KeyError):
                session.push_config("work_mem", "1GB")

    def test_reset_pushes_clears_state(self, pg, workload):
        q = next(q for q in workload if q.n_tables >= 2)
        with pg.open_session() as session:
            session.push_cardinality_scale(100.0)
            scaled = session.pull_plan(q)
            session.reset_pushes()
            back = session.pull_plan(q)
        assert back.signature() == pg.optimizer.plan(q).signature()

    def test_closed_session_rejects_ops(self, pg):
        session = pg.open_session()
        session.close()
        with pytest.raises(RuntimeError):
            session.push_cardinality_scale(2.0)

    def test_sessions_isolated(self, pg, workload):
        q = next(q for q in workload if q.n_tables >= 2)
        s1 = pg.open_session()
        s2 = pg.open_session()
        s1.push_cardinality_scale(100.0)
        # s2 must not see s1's pushed state.
        assert s2.pull_plan(q).signature() == pg.optimizer.plan(q).signature()
        s1.close()
        s2.close()

    def test_pull_execution_and_native_estimate(self, pg, workload):
        q = workload[0]
        with pg.open_session() as session:
            plan = session.pull_plan(q)
            res = session.pull_execution(plan)
            est = session.pull_native_estimate(q)
        assert res.latency_ms > 0
        assert est >= 0


class TestConsole:
    def test_native_execution_logged(self, pg, workload):
        console = PilotScopeConsole(pg)
        out = console.execute(workload[0].to_sql())
        assert out.cardinality >= 0
        assert console.query_log[0].served_by == "native"

    def test_driver_lifecycle(self, pg, workload):
        console = PilotScopeConsole(pg)
        driver = CardinalityInjectionDriver(HistogramEstimator(pg.db))
        console.register_driver(driver)
        with pytest.raises(KeyError):
            console.start_driver("nope")
        console.start_driver("cardinality_injection")
        assert console.active_drivers() == ["cardinality_injection"]
        console.execute(workload[0])
        assert console.query_log[-1].served_by == "cardinality_injection"
        console.stop_driver("cardinality_injection")
        console.execute(workload[0])
        assert console.query_log[-1].served_by == "native"

    def test_duplicate_registration_rejected(self, pg):
        console = PilotScopeConsole(pg)
        console.register_driver(BaoDriver())
        with pytest.raises(ValueError):
            console.register_driver(BaoDriver())

    def test_two_optimizer_drivers_conflict(self, pg, workload):
        console = PilotScopeConsole(pg)
        lero = LeroDriver()
        console.register_driver(BaoDriver())
        console.register_driver(lero)
        console.start_driver("bao_driver")
        with pytest.raises(ValueError, match="already active"):
            console.start_driver("lero_driver")
        # Refused before init: the driver is exactly as it was registered ...
        assert not lero.started
        assert lero.interactor is None and lero.learned is None
        assert console.active_drivers() == ["bao_driver"]
        # ... and starts normally once the other one is stopped.
        console.stop_driver("bao_driver")
        console.start_driver("lero_driver")
        assert lero.started and lero.learned is not None
        assert console.active_drivers() == ["lero_driver"]
        console.execute(workload[0])
        assert console.last_served_by == "lero_driver"

    def test_driver_before_init_raises(self, pg, workload):
        driver = BaoDriver()
        with pytest.raises(RuntimeError, match="init"):
            driver.algo(workload[0])

    def test_background_updates_invoked(self, pg, workload):
        console = PilotScopeConsole(pg)
        calls = {"n": 0}

        class Spy(CardinalityInjectionDriver):
            def background_update(self):
                calls["n"] += 1

        console.register_driver(Spy(HistogramEstimator(pg.db)))
        console.start_driver("cardinality_injection")
        console.enable_background_updates(3)
        for q in workload[:7]:
            console.execute(q)
        assert calls["n"] == 2

    def test_background_update_period_counts_from_enabling(self, pg, workload):
        """Queries served before updates were enabled do not count toward
        the first period."""
        console = PilotScopeConsole(pg)
        fired = []

        class Spy(CardinalityInjectionDriver):
            def background_update(self):
                fired.append(console.queries_served)

        console.register_driver(Spy(HistogramEstimator(pg.db)))
        console.start_driver("cardinality_injection")
        for q in workload[:20]:
            console.execute(q)
        console.enable_background_updates(3)
        for q in workload[20:25]:
            console.execute(q)
        assert fired == [23]

    def test_background_update_period_validated(self, pg):
        console = PilotScopeConsole(pg)
        with pytest.raises(ValueError):
            console.enable_background_updates(0)


class TestCardinalityInjectionDriver:
    def test_injection_produces_correct_results(self, pg, workload, stats_executor):
        driver = CardinalityInjectionDriver(HistogramEstimator(pg.db))
        driver.init(pg)
        q = workload[0]
        out = driver.algo(q)
        # Whatever the plan, the *result* must equal the true cardinality.
        assert out.cardinality == stats_executor.cardinality(q)

    def test_rejects_non_estimator(self):
        with pytest.raises(TypeError):
            CardinalityInjectionDriver(object())


class TestSteeringDrivers:
    def test_bao_driver_serves_queries(self, pg, workload):
        driver = BaoDriver(seed=0)
        driver.init(pg)
        for q in workload[:12]:
            out = driver.algo(q)
            assert out.latency_ms > 0

    @pytest.mark.parametrize("every, retrains", [(0, 0), (10, 1)])
    def test_retrain_cadence_follows_the_framework(self, pg, workload, every, retrains):
        """A steering driver only records: it refits through the console's
        background updates -- never without them, once in 12 queries at
        ``every=10``."""
        calls = []

        class Counting(BaoDriver):
            def _build_risk_model(self, featurizer):
                model = super()._build_risk_model(featurizer)
                model.retrain = lambda: calls.append(1)
                return model

        driver = Counting(seed=0)
        console = PilotScopeConsole(pg)
        console.register_driver(driver)
        console.start_driver(driver.name)
        if every:
            console.enable_background_updates(every)
        for q in workload[:12]:
            console.execute(q)
        assert console.served_by_counts == {driver.name: 12}
        assert len(calls) == retrains
        assert len(driver.risk_model._latencies) == 12

    def test_lero_driver_training_phase(self, pg, workload):
        driver = LeroDriver(seed=0)
        driver.init(pg)
        driver.collect_training_data(workload[:10])
        driver.train()
        out = driver.algo(workload[11])
        assert out.latency_ms > 0


class TestBoundedQueryLog:
    def test_log_capped_counters_keep_counting(self, pg, workload):
        console = PilotScopeConsole(pg, max_log_entries=5)
        for q in (workload * 3)[:12]:
            console.execute(q)
        assert len(console.query_log) == 5  # capped
        assert console.queries_served == 12  # totals survive the cap
        assert sum(console.served_by_counts.values()) == 12
        assert console.served_by_counts["native"] == 12

    def test_log_keeps_most_recent_entries(self, pg, workload):
        console = PilotScopeConsole(pg, max_log_entries=3)
        for q in workload[:5]:
            console.execute(q)
        logged = [e.sql for e in console.query_log]
        assert logged == [q.to_sql() for q in workload[2:5]]

    def test_unbounded_when_disabled(self, pg, workload):
        console = PilotScopeConsole(pg, max_log_entries=None)
        for q in (workload * 4)[:20]:
            console.execute(q)
        assert len(console.query_log) == 20
