"""Cross-module integration tests: the full pipelines users run."""

from repro.cardest import FSPNEstimator
from repro.core import RetrainCadence
from repro.core.interfaces import CardinalityEstimator, InjectedCardinalities
from repro.e2e import BaoOptimizer, OptimizationLoop
from repro.engine import CardinalityExecutor, ExecutionSimulator
from repro.optimizer import Optimizer
from repro.pilotscope import (
    CardinalityInjectionDriver,
    PilotScopeConsole,
    SimulatedPostgreSQL,
)
from repro.sql import WorkloadGenerator, parse_query
from repro.storage import make_stats_lite


class TestEstimatorToPlannerPipeline:
    def test_better_estimates_do_not_hurt_plans(self, stats_db, stats_executor):
        """Injecting exact cardinalities must never make the chosen plan
        worse *under the planner's own cost model* -- sanity of the whole
        estimate -> cost -> enumerate pipeline."""
        opt = Optimizer(stats_db)

        class Oracle(CardinalityEstimator):
            def estimate(self, query):
                return stats_executor.cardinality(query)

        oracle = Oracle()
        oracle_opt = opt.with_estimator(oracle)
        gen = WorkloadGenerator(stats_db, seed=120)
        for q in gen.workload(15, 2, 4, require_predicate=True):
            native_plan = opt.plan(q)
            oracle_plan = oracle_opt.plan(q)
            # Cost both under exact cards: the oracle-picked plan wins.
            coster = oracle_opt.coster
            assert coster.cost(oracle_plan) <= coster.cost(native_plan) + 1e-6

    def test_learned_estimator_via_injection_wrapper(self, stats_db, stats_executor):
        fspn = FSPNEstimator(stats_db)
        opt = Optimizer(stats_db)
        wrapped = InjectedCardinalities(fspn)
        learned_opt = opt.with_estimator(wrapped)
        gen = WorkloadGenerator(stats_db, seed=121)
        q = gen.random_query(2, 3, require_predicate=True)
        plan = learned_opt.plan(q)
        assert plan.root.tables == frozenset(q.tables)


class TestFullPilotScopeStack:
    def test_sql_to_latency_round_trip(self):
        db = make_stats_lite(scale=0.25, seed=7)
        console = PilotScopeConsole(SimulatedPostgreSQL(db))
        out = console.execute(
            "SELECT COUNT(*) FROM posts, users "
            "WHERE posts.owner_id = users.id AND users.reputation <= 5"
        )
        truth = CardinalityExecutor(db).cardinality(
            parse_query(
                "SELECT COUNT(*) FROM posts, users "
                "WHERE posts.owner_id = users.id AND users.reputation <= 5"
            )
        )
        assert out.cardinality == truth

    def test_driver_injection_end_to_end(self, stats_db, stats_executor):
        pg = SimulatedPostgreSQL(stats_db)
        console = PilotScopeConsole(pg)
        driver = CardinalityInjectionDriver(FSPNEstimator(stats_db))
        console.register_driver(driver)
        console.start_driver("cardinality_injection")
        gen = WorkloadGenerator(stats_db, seed=122)
        for q in gen.workload(5, 1, 3, require_predicate=True):
            out = console.execute(q)
            assert out.cardinality == stats_executor.cardinality(q)


class TestLearnedOptimizerConvergence:
    def test_bao_learns_to_avoid_repeated_mistakes(self, imdb_db):
        """On a *repeating* workload Bao must converge to plans at least
        as good as native (it can memorize the best arm per query)."""
        opt = Optimizer(imdb_db)
        sim = ExecutionSimulator(imdb_db)
        gen = WorkloadGenerator(imdb_db, seed=123)
        base_queries = gen.workload(10, 2, 4, require_predicate=True)
        workload = base_queries * 12  # the same 10 queries repeated
        bao = BaoOptimizer(opt, seed=0)
        loop = OptimizationLoop(bao, sim, opt, policies=[RetrainCadence(bao, every=20)])
        loop.run(workload)
        s = loop.summary(tail=30)
        assert s["workload_speedup"] >= 1.0

    def test_estimation_quality_correlates_with_plan_quality(
        self, stats_db, stats_executor
    ):
        """Plans chosen with exact cardinalities must on aggregate be no
        slower than plans chosen with a deliberately awful estimator."""
        opt = Optimizer(stats_db)
        sim = ExecutionSimulator(stats_db)

        class Awful(CardinalityEstimator):
            def estimate(self, query):
                return 1.0  # everything looks tiny

        class Oracle(CardinalityEstimator):
            def estimate(self, query):
                return stats_executor.cardinality(query)

        awful_opt = opt.with_estimator(Awful())
        oracle_opt = opt.with_estimator(Oracle())
        gen = WorkloadGenerator(stats_db, seed=124)
        awful_total = oracle_total = 0.0
        for q in gen.workload(20, 2, 4, require_predicate=True):
            awful_total += sim.execute(awful_opt.plan(q)).latency_ms
            oracle_total += sim.execute(oracle_opt.plan(q)).latency_ms
        assert oracle_total <= awful_total
