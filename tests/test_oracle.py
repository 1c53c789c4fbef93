"""Tests for the plan-correctness oracle.

Covers the four oracle layers (differential plan equivalence, metamorphic
transforms, estimator contracts, sampled online audit), the purpose-built
fixtures, the seeded-mutation catalogue that validates the oracle against
re-introduced bugs, and the serving-runtime integration.
"""

import numpy as np
import pytest

from repro.cardest.querydriven import LinearQueryEstimator
from repro.engine import CardinalityExecutor
from repro.optimizer import TraditionalCardinalityEstimator
from repro.oracle import (
    EstimatorContractChecker,
    MetamorphicSuite,
    OnlineAuditor,
    OracleReport,
    PlanEquivalenceChecker,
    PlanInterpreter,
    PlanResultTooLarge,
    ReferenceTooLarge,
    Violation,
    apply_mutation,
    mutation_names,
    reference_count,
)
from repro.oracle.fixtures import chain_query, make_deep_chain, make_probe_table
from repro.oracle.metamorphic import TRANSFORMS
from repro.sql import ColumnRef, Join, Op, Predicate, Query, WorkloadGenerator
from repro.sql.query import query_hash


@pytest.fixture(scope="module")
def oracle_workload(stats_db):
    gen = WorkloadGenerator(stats_db, seed=21)
    return gen.workload(10, 1, 3, require_predicate=True)


@pytest.fixture(scope="module")
def triangle_query():
    """The stats_lite cyclic join (posts-users, comments-posts, comments-users)."""
    return Query(
        ("comments", "posts", "users"),
        (
            Join(ColumnRef("posts", "owner_id"), ColumnRef("users", "id")),
            Join(ColumnRef("comments", "post_id"), ColumnRef("posts", "id")),
            Join(ColumnRef("comments", "user_id"), ColumnRef("users", "id")),
        ),
    )


class TestReferenceCount:
    def test_matches_executor_on_workload(
        self, stats_db, stats_executor, oracle_workload
    ):
        for q in oracle_workload:
            assert reference_count(stats_db, q) == stats_executor.cardinality(q)

    def test_cyclic_query(self, stats_db, stats_executor, triangle_query):
        assert reference_count(
            stats_db, triangle_query
        ) == stats_executor.cardinality(triangle_query)

    def test_row_guard(self, stats_db, triangle_query):
        with pytest.raises(ReferenceTooLarge):
            reference_count(stats_db, triangle_query, max_rows=1)

    def test_or_and_in_predicates(self, stats_db, stats_executor):
        from repro.sql.query import OrPredicate

        ref = ColumnRef("users", "reputation")
        q = Query(
            ("users",),
            (),
            (
                OrPredicate(
                    ref,
                    (
                        Predicate(ref, Op.LE, 2.0),
                        Predicate(ref, Op.BETWEEN, (5.0, 9.0)),
                    ),
                ),
                Predicate(
                    ColumnRef("users", "upvotes"), Op.IN, frozenset({2.0, 3.0})
                ),
            ),
        )
        assert reference_count(stats_db, q) == stats_executor.cardinality(q)


class TestPlanInterpreter:
    def test_plans_reproduce_exact_count(
        self, stats_db, stats_executor, stats_optimizer, oracle_workload
    ):
        interp = PlanInterpreter(stats_db)
        for q in oracle_workload:
            plan = stats_optimizer.plan(q)
            assert interp.count(plan) == stats_executor.cardinality(q)

    def test_row_guard(self, stats_db, stats_optimizer, oracle_workload):
        joined = next(q for q in oracle_workload if q.n_tables >= 2)
        interp = PlanInterpreter(stats_db, max_rows=0)
        with pytest.raises(PlanResultTooLarge):
            interp.count(stats_optimizer.plan(joined))


class TestPlanEquivalence:
    def test_clean_workload(self, stats_db, oracle_workload):
        checker = PlanEquivalenceChecker(stats_db)
        assert checker.check_workload(oracle_workload) == []
        assert checker.plans_checked > len(oracle_workload)

    def test_catches_executor_bug(self, stats_db, oracle_workload):
        with apply_mutation("lookup_missing_counts_one"):
            checker = PlanEquivalenceChecker(stats_db)
            violations = checker.check_workload(oracle_workload)
        assert violations
        assert {v.layer for v in violations} == {"plan_equivalence"}


class TestMetamorphic:
    def test_clean_workload(self, stats_db, oracle_workload):
        suite = MetamorphicSuite(stats_db)
        assert suite.check_workload(oracle_workload) == []
        assert suite.checks_run > 0

    def test_every_transform_applies_somewhere(self, stats_db):
        ref = ColumnRef("posts", "score")
        q = Query(
            ("posts", "users"),
            (Join(ColumnRef("posts", "owner_id"), ColumnRef("users", "id")),),
            (
                Predicate(ref, Op.BETWEEN, (1.0, 8.0)),
                Predicate(
                    ColumnRef("users", "upvotes"), Op.IN, frozenset({2.0, 3.0})
                ),
            ),
        )
        for name, (transform, _) in TRANSFORMS.items():
            assert transform(stats_db, q) is not None, name

    def test_singleton_in_becomes_equality(self, stats_db):
        q = Query(
            ("users",),
            (),
            (Predicate(ColumnRef("users", "upvotes"), Op.IN, frozenset({2.0})),),
        )
        transformed = TRANSFORMS["expand_in_to_or"][0](stats_db, q)
        assert transformed.predicates[0].op is Op.EQ

    def test_permutation_preserves_hash(self, stats_db, oracle_workload):
        for q in oracle_workload:
            permuted = TRANSFORMS["permute_tables"][0](stats_db, q)
            if permuted is not None:
                assert query_hash(permuted) == query_hash(q)

    def test_catches_broken_canonicalization(self, stats_db, oracle_workload):
        with apply_mutation("join_normalize_identity"):
            suite = MetamorphicSuite(stats_db)
            violations = suite.check_workload(oracle_workload)
        assert any("query_hash" in v.check for v in violations)


class TestContracts:
    def test_clean_traditional(self, stats_db, oracle_workload):
        checker = EstimatorContractChecker(
            stats_db, TraditionalCardinalityEstimator(stats_db)
        )
        assert checker.check_workload(oracle_workload) == []
        assert checker.check_domain_contracts() == []

    def test_catches_negative_estimates(self, stats_db, oracle_workload):
        with apply_mutation("estimate_negative"):
            checker = EstimatorContractChecker(
                stats_db, TraditionalCardinalityEstimator(stats_db)
            )
            violations = checker.check_workload(oracle_workload[:3])
        assert any(v.check == "non_negative" for v in violations)

    def test_version_bump(self, stats_db, stats_executor, oracle_workload):
        cards = np.array(
            [stats_executor.cardinality(q) for q in oracle_workload], dtype=float
        )
        est = LinearQueryEstimator(stats_db).fit(list(oracle_workload), cards)
        checker = EstimatorContractChecker(stats_db, est, monotonic=False)
        assert (
            checker.check_version_bump(
                lambda e: e.fit(list(oracle_workload), cards)
            )
            == []
        )
        with apply_mutation("version_bump_dropped"):
            violations = checker.check_version_bump(
                lambda e: e.fit(list(oracle_workload), cards)
            )
        assert violations and violations[0].check == "version_bump:refit"

    def test_version_bump_binds_every_estimator(self, stats_db):
        """A stateless estimator has version 0 too: a refit that leaves it
        there is a violation, not a skip."""
        checker = EstimatorContractChecker(
            stats_db, TraditionalCardinalityEstimator(stats_db)
        )
        violations = checker.check_version_bump(lambda e: None)
        assert [(v.check, v.actual) for v in violations] == [("version_bump:refit", "0")]


class TestDeepChainFixture:
    def test_exact_past_float53(self):
        db, q, expected = make_deep_chain(8)
        assert expected > 2**53
        # An odd total above 2**53 has no float64 representation, so any
        # float accumulation would visibly diverge.
        assert expected % 2 == 1
        assert int(float(expected)) != expected
        assert CardinalityExecutor(db).cardinality(q) == expected
        assert reference_count(db, q) == expected

    def test_probe_columns(self):
        probe = make_probe_table()
        skew = probe.values("skew")
        big = probe.values("big")
        assert float(big.max()) == 2_000_000_000.0
        assert int((big == big.max()).sum()) >= 10  # point mass at the max
        assert int((skew == skew.max()).sum()) >= 20  # degenerate buckets

    def test_chain_query_shape(self):
        q = chain_query(4)
        assert q.n_tables == 4 and len(q.joins) == 3


class TestMutationCatalogue:
    def test_catalogue_size_and_reversibility(self, stats_db, stats_executor):
        assert len(mutation_names()) >= 10
        q = Query(
            ("users",),
            (),
            (Predicate(ColumnRef("users", "reputation"), Op.LE, 40.0),),
        )
        baseline = CardinalityExecutor(stats_db).cardinality(q)
        for name in mutation_names():
            with apply_mutation(name):
                pass  # enter/exit must restore every patch
            assert CardinalityExecutor(stats_db).cardinality(q) == baseline

    def test_float64_mutation_caught_by_chain_differential(self):
        db, q, expected = make_deep_chain(8)
        with apply_mutation("tree_count_float64"):
            got = CardinalityExecutor(db).cardinality(q)
        assert got != expected
        assert reference_count(db, q) == expected

    def test_unknown_mutation(self):
        with pytest.raises(KeyError):
            apply_mutation("nope")


class TestOnlineAuditor:
    def test_sampling_cadence(self, stats_db, stats_executor, oracle_workload):
        from repro.serve.telemetry import TelemetryBus

        auditor = OnlineAuditor(stats_db, every=4)
        bus = TelemetryBus()
        tags = [
            auditor.observe(q, stats_executor.cardinality(q), bus=bus)
            for q in oracle_workload[:8]
        ]
        assert [bool(t) for t in tags] == [True, False, False, False] * 2
        assert set(t for t in tags if t) == {"ok"}
        assert auditor.stats()["audited"] == 2
        assert auditor.report.n_violations == 0

    def test_detects_wrong_cardinality(self, stats_db, stats_executor, oracle_workload):
        from repro.serve.telemetry import TelemetryBus

        auditor = OnlineAuditor(stats_db, every=1)
        q = oracle_workload[0]
        bus = TelemetryBus()
        assert auditor.observe(q, stats_executor.cardinality(q) + 1, bus=bus) == "violation"
        assert auditor.report.n_violations == 1
        assert auditor.report.violations[0].check == "served_cardinality"

    def test_bus_counters(self, stats_db, stats_executor, oracle_workload):
        from repro.serve.telemetry import TelemetryBus

        bus = TelemetryBus()
        auditor = OnlineAuditor(stats_db, every=1)
        q = oracle_workload[0]
        auditor.observe(q, stats_executor.cardinality(q), bus=bus)
        auditor.observe(q, stats_executor.cardinality(q) + 7, bus=bus)
        counters = bus.snapshot()["counters"]
        assert counters["oracle.audited"] == 2
        assert counters["oracle.violations"] == 1

    def test_invalid_period(self, stats_db):
        with pytest.raises(ValueError):
            OnlineAuditor(stats_db, every=0)


class TestServingIntegration:
    def test_audited_run_is_deterministic(self):
        from repro.serve.scenarios import steady_state_scenario

        snaps = []
        for _ in range(2):
            scenario = steady_state_scenario(
                scale=0.2, n_queries=32, n_sessions=4, audit_every=8
            )
            scenario.run()
            snaps.append(scenario.runtime.telemetry.to_json())
        assert snaps[0] == snaps[1]

    def test_audit_counters_and_trace_tags(self):
        from repro.serve.scenarios import steady_state_scenario

        scenario = steady_state_scenario(
            scale=0.2, n_queries=32, n_sessions=4, audit_every=8
        )
        scenario.run()
        snap = scenario.runtime.telemetry.snapshot()
        assert snap["counters"]["oracle.audited"] == 4
        assert "oracle.violations" not in snap["counters"]
        tagged = [t for t in snap["traces"] if t["audit"]]
        assert len(tagged) == 4
        assert {t["audit"] for t in tagged} == {"ok"}
        assert scenario.auditor.report.n_violations == 0


class TestOracleReport:
    def test_canonical_json(self):
        a = Violation("contract", "finite", "x", "f", "nan")
        b = Violation("audit", "served_cardinality", "y", "3", "4", detail="d")
        r1 = OracleReport()
        r1.extend([a, b])
        r1.record_check("contract", 2)
        r2 = OracleReport()
        r2.extend([b, a])  # insertion order must not matter
        r2.record_check("contract")
        r2.record_check("contract")
        assert r1.to_json() == r2.to_json()
        assert not r1.clean and r1.n_violations == 2
        assert r1.by_layer() == {"contract": 1, "audit": 1}

    def test_merge(self):
        r1, r2 = OracleReport(), OracleReport()
        r1.record_check("metamorphic", 3)
        r2.extend([Violation("metamorphic", "c", "s", "1", "2")])
        r2.record_check("metamorphic", 2)
        r1.merge(r2)
        assert r1.checks == {"metamorphic": 5}
        assert r1.n_violations == 1
