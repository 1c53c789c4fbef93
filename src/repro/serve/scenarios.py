"""Canned serving scenarios for tests, benchmarks and examples.

Each scenario assembles the full stack -- database, native optimizer,
execution simulator, a learned (Bao-style) optimizer staged behind a
:class:`~repro.serve.deployment.DeploymentManager`, and a scheduled
multi-session workload -- and returns it as one :class:`ServingScenario`
ready to :meth:`~ServingScenario.run`:

- :func:`steady_state_scenario`: a healthy canary deployment under
  sustained concurrent traffic (the throughput benchmark's subject);
- :func:`injected_regression_scenario`: the staged model turns adversarial
  after 20 decisions (it starts proposing nested-loop-only
  plans), which must trip the deployment's rolling regression window and
  roll the model back automatically;
- :func:`parameterized_scenario`: a prepared-statement stream served in
  SHADOW through the plan-cache fast path;
- :func:`chaos_scenario`: the full degradation ladder under a seeded
  :class:`~repro.faults.FaultPlan` -- the estimator throws / returns
  NaN / serves stale statistics behind a :class:`~repro.faults.
  FallbackEstimator`, the learned optimizer crashes and stalls behind the
  deployment's circuit breaker, and the run must still complete with every
  query answered.  Byte-for-byte reproducible per seed.
- :func:`bound_guard_scenario`: a fault-injected point estimator served
  behind a :class:`~repro.faults.BoundGuard` -- every estimate checked
  against its certified pessimistic bound, violations tripping the guard
  breaker and routing to the histogram fallback, with the online auditor
  feeding observed exact counts back into the guard.
- :func:`adversarial_drift_scenario`: optimistic vs pessimistic
  (``risk="worst_case"``) planning on a LIVE deployment while
  :func:`repro.bench.adversarial_hot_key_drift` explodes join fan-out
  mid-stream -- the tail-latency comparison ``bench_p8_bounds.py`` gates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.workloads import (
    adversarial_hot_key_drift,
    hot_key_probe_queries,
    hot_key_targets,
)
from repro.cardest.bounds import MCVJoinBoundEstimator
from repro.core.framework import CandidatePlan, PlannerModel, RetrainCadence
from repro.e2e.bao import BaoOptimizer
from repro.engine.simulator import ExecutionSimulator
from repro.faults import (
    BoundGuard,
    CircuitBreaker,
    FallbackEstimator,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from repro.optimizer.hints import HintSet
from repro.optimizer.plancache import PlanCache
from repro.optimizer.planner import Optimizer
from repro.optimizer.traditional import TraditionalCardinalityEstimator
from repro.oracle.audit import OnlineAuditor
from repro.serve.deployment import DeploymentManager, Stage
from repro.serve.runtime import (
    Request,
    RunReport,
    RuntimeConfig,
    ServingRuntime,
    build_schedule,
)
from repro.serve.telemetry import TelemetryBus
from repro.sql.generator import WorkloadGenerator
from repro.sql.query import Query
from repro.storage.catalog import Database
from repro.storage.datasets import make_stats_lite

__all__ = [
    "RegressionInjector",
    "ServingScenario",
    "steady_state_scenario",
    "injected_regression_scenario",
    "parameterized_scenario",
    "default_chaos_plan",
    "chaos_scenario",
    "default_bound_fault_plan",
    "bound_guard_scenario",
    "adversarial_drift_scenario",
]


#: share of its rows each child table grows by at the adversarial drift,
#: every new foreign key on the hot parent key
ADVERSARIAL_DRIFT_FRACTION = 0.5
#: what the injected regression proposes: nested-loop-only plans
_BAD_HINTS = HintSet(enable_hash_join=False, enable_merge_join=False)


class RegressionInjector:
    """Wrap a learned optimizer; turn adversarial after ``trigger_at``.

    Until the trigger it is transparent.  From decision ``trigger_at + 1``
    on it proposes the native optimizer's plan under nested-loop-only
    hints -- reliably a regression on join-heavy queries -- tagged with
    source ``"injected"`` so traces show exactly which plans were
    sabotaged.  Feedback keeps flowing to the wrapped model either way.
    """

    def __init__(self, inner, optimizer: Optimizer, *, trigger_at: int) -> None:
        self.inner = inner
        self.optimizer = optimizer
        self.trigger_at = trigger_at
        self.decisions = 0
        self.name = f"{inner.name}+injected"

    def choose_plan(self, query: Query) -> CandidatePlan:
        self.decisions += 1
        if self.decisions > self.trigger_at:
            plan = self.optimizer.plan(query, hints=_BAD_HINTS)
            return CandidatePlan(plan=plan, source="injected")
        return self.inner.choose_plan(query)

    def record_feedback(
        self, query: Query, candidate: CandidatePlan, latency_ms: float
    ) -> None:
        self.inner.record_feedback(query, candidate, latency_ms)


@dataclass
class ServingScenario:
    """A fully-assembled serving setup: run it, inspect the pieces."""

    name: str
    db: Database
    native: Optimizer
    simulator: ExecutionSimulator
    deployment: DeploymentManager
    runtime: ServingRuntime
    schedule: list[list[Request]]
    #: set on chaos scenarios: the fault injector driving the run
    injector: FaultInjector | None = None
    #: set when the scenario was assembled with ``audit_every``: the online
    #: oracle sampling served results (see :class:`repro.oracle.OnlineAuditor`)
    auditor: OnlineAuditor | None = None
    #: set on parameterized scenarios: the plan cache serving native plannings
    plan_cache: PlanCache | None = None
    #: set on bound-guard scenarios: the guard certifying served estimates
    bound_guard: BoundGuard | None = None

    def run(self) -> RunReport:
        return self.runtime.run(self.schedule)

    @property
    def n_requests(self) -> int:
        return sum(len(s) for s in self.schedule)


def _native(scale: float, seed: int) -> tuple[Database, Optimizer]:
    db = make_stats_lite(scale=scale, seed=seed)
    return db, Optimizer(db)


def _adhoc(db: Database, n_queries: int, seed: int) -> list[Query]:
    """``n_queries`` generated 2-4 table joins, each with a predicate."""
    return WorkloadGenerator(db, seed=seed + 1).workload(n_queries, 2, 4, require_predicate=True)


def _assemble(
    label: str,
    deployment: DeploymentManager,
    queries: list[Query],
    *,
    seed: int,
    n_sessions: int,
    config: RuntimeConfig | None,
    audit_every: int | None = None,
    injector: FaultInjector | None = None,
    bound_guard: BoundGuard | None = None,
) -> ServingScenario:
    """Serve ``deployment`` through a runtime, over a seeded
    ``n_sessions``-session schedule of ``queries`` and, given
    ``audit_every``, the online auditor (fed back into ``bound_guard``).
    Each builder stages its model in its own ``deployment``: the keywords
    it varies, and Bao refit in place every 25 of its feedbacks."""
    db, auditor = deployment.native.db, None
    if audit_every is not None:
        auditor = OnlineAuditor(db, every=audit_every, bound_guard=bound_guard)
    return ServingScenario(
        name=label,
        db=db,
        native=deployment.native,
        simulator=deployment.simulator,
        deployment=deployment,
        runtime=ServingRuntime(deployment, config=config, auditor=auditor),
        schedule=build_schedule(queries, n_sessions, seed=seed),
        injector=injector,
        auditor=auditor,
        plan_cache=deployment.plan_cache,
        bound_guard=bound_guard,
    )


def steady_state_scenario(
    *,
    scale: float = 0.3,
    seed: int = 0,
    n_queries: int = 160,
    n_sessions: int = 8,
    stage: Stage = Stage.CANARY,
    config: RuntimeConfig | None = None,
    audit_every: int | None = None,
) -> ServingScenario:
    """Healthy canary (half the traffic) under sustained concurrent traffic.

    ``audit_every`` (off by default) attaches the online oracle: one in
    that many served queries is re-verified against the independent
    reference count, with outcomes reported through the telemetry bus.
    """
    db, native = _native(scale, seed)
    bao = BaoOptimizer(native, seed=seed)
    deployment = DeploymentManager(
        bao,
        native,
        ExecutionSimulator(db),
        stage=stage,
        canary_fraction=0.5,
        regression_threshold=2.5,
        policies=[RetrainCadence(bao, every=25)],
    )
    return _assemble(
        "steady_state",
        deployment,
        _adhoc(db, n_queries, seed),
        seed=seed,
        n_sessions=n_sessions,
        config=config,
        audit_every=audit_every,
    )


def parameterized_scenario(*, scale: float = 0.3, seed: int = 0) -> ServingScenario:
    """A prepared-statement stream served through the plan-cache fast path.

    The workload is 8 query templates arriving interleaved with 10
    literal bindings each, over 4 sessions; the deployment serves in
    SHADOW (every query planned natively, the staged model evaluated
    off-path), so each template is planned once and every later binding
    replays the cached plan.  Expected hit rate: 1 - 1/10 = 90%.
    """
    db, native = _native(scale, seed)
    queries = WorkloadGenerator(db, seed=seed + 1).parameterized_workload(
        8, 10, 2, 4, require_predicate=True
    )
    bao = BaoOptimizer(native, seed=seed)
    deployment = DeploymentManager(
        bao,
        native,
        ExecutionSimulator(db),
        canary_fraction=0.5,
        regression_threshold=2.5,
        plan_cache=PlanCache(),
        policies=[RetrainCadence(bao, every=25)],
    )
    return _assemble("parameterized", deployment, queries, seed=seed, n_sessions=4, config=None)


def injected_regression_scenario(
    *, scale: float = 0.3, n_sessions: int = 8
) -> ServingScenario:
    """A canary that goes bad and must be rolled back automatically: 120
    queries at seed 0, judged over windows of 16 with at least 8 samples
    against a 1.3x regression threshold."""
    db, native = _native(scale, 0)
    bao = BaoOptimizer(native, seed=0)
    deployment = DeploymentManager(
        RegressionInjector(bao, native, trigger_at=20),
        native,
        ExecutionSimulator(db),
        stage=Stage.CANARY,
        canary_fraction=1.0,
        window=16,
        min_samples=8,
        policies=[RetrainCadence(bao, every=25)],
    )
    return _assemble(
        "injected_regression",
        deployment,
        _adhoc(db, 120, 0),
        seed=0,
        n_sessions=n_sessions,
        config=None,
    )


def default_chaos_plan(seed: int = 0) -> FaultPlan:
    """A representative fault mix covering every rung of the ladder:
    estimator crashes, non-finite and garbage outputs, stale-statistics
    snapshots, plus learned-optimizer crashes and inference stalls."""
    return FaultPlan(
        (
            FaultSpec(kind="exception", rate=0.08, target="estimator"),
            FaultSpec(kind="nan", rate=0.05, target="estimator"),
            FaultSpec(kind="inf", rate=0.03, target="estimator"),
            FaultSpec(
                kind="garbage", rate=0.04, target="estimator", magnitude=1e6
            ),
            FaultSpec(kind="stale", rate=0.08, target="estimator"),
            FaultSpec(kind="exception", rate=0.06, target="learned"),
            FaultSpec(
                kind="latency", rate=0.05, target="learned", magnitude=400.0
            ),
        ),
        seed=seed,
    )


def chaos_scenario(
    *,
    scale: float = 0.3,
    seed: int = 0,
    n_queries: int = 120,
    plan: FaultPlan | None = None,
) -> ServingScenario:
    """The serving stack under deterministic fault injection: a canary on
    half of 8 sessions' traffic.

    The native estimator is wrapped in a fault injector and then a
    :class:`~repro.faults.FallbackEstimator` (histogram fallback behind a
    circuit breaker); the Bao-style learned optimizer plans *through* that
    resilient estimator and is itself wrapped in the injector, guarded by
    the deployment's own breaker and per-call inference budget.  All
    breakers share the injector's virtual clock, which the deployment
    advances by served latency -- so cooldowns, like everything else, are
    a pure function of the seed.  The per-call inference budget is 200 ms,
    and the model stays deployed however often the breaker trips
    (``rollback_after_trips=None``), so the whole ladder is exercised all
    run long.
    """
    db, native = _native(scale, seed)
    bus = TelemetryBus()
    injector = FaultInjector(
        plan if plan is not None else default_chaos_plan(seed), telemetry=bus
    )
    estimator_breaker = CircuitBreaker(
        cooldown_ms=500.0, clock=injector.clock, name="estimator", telemetry=bus
    )
    resilient = FallbackEstimator(
        injector.wrap_estimator(native.estimator),
        TraditionalCardinalityEstimator(db),
        breaker=estimator_breaker,
        telemetry=bus,
    )
    bus.attach_gauge("fault_injector", injector.stats)
    bus.attach_gauge("fallback_estimator", resilient.stats)
    bus.attach_gauge("breaker_estimator", estimator_breaker.stats)
    bao = BaoOptimizer(native.with_estimator(resilient), seed=seed)
    deployment = DeploymentManager(
        injector.wrap_learned(bao),
        native,
        ExecutionSimulator(db),
        telemetry=bus,
        stage=Stage.CANARY,
        canary_fraction=0.5,
        regression_threshold=3.0,
        breaker=CircuitBreaker(
            cooldown_ms=400.0, clock=injector.clock, name="learned", telemetry=bus
        ),
        call_timeout_ms=200.0,
        rollback_after_trips=None,
        policies=[RetrainCadence(bao, every=25)],
    )
    return _assemble(
        "chaos",
        deployment,
        _adhoc(db, n_queries, seed),
        seed=seed,
        n_sessions=8,
        config=None,
        injector=injector,
    )


def default_bound_fault_plan(seed: int = 0) -> FaultPlan:
    """Estimator faults whose *outputs* a bound certificate catches:
    non-finite and wildly-overscaled predictions (plus crashes for the
    error path).  No stale faults -- staleness is what the observed-count
    side of the guard exists for."""
    return FaultPlan(
        (
            FaultSpec(kind="nan", rate=0.06, target="estimator"),
            FaultSpec(kind="inf", rate=0.05, target="estimator"),
            FaultSpec(
                kind="garbage", rate=0.08, target="estimator", magnitude=1e9
            ),
            FaultSpec(kind="exception", rate=0.04, target="estimator"),
        ),
        seed=seed,
    )


def bound_guard_scenario(
    *,
    scale: float = 0.3,
    seed: int = 0,
    n_queries: int = 120,
    n_sessions: int = 8,
    plan: FaultPlan | None = None,
) -> ServingScenario:
    """A fault-injected point estimator serving behind a bound guard
    (tolerance 2.0, one served query in 8 audited).

    The native estimator is wrapped in a seeded fault injector and then in
    a :class:`~repro.faults.BoundGuard` certifying every estimate against
    a pessimistic :class:`~repro.cardest.MCVJoinBoundEstimator` bound; the
    Bao-style learned optimizer plans through the guarded estimator.
    Injected NaN/Inf/garbage predictions exceed their certified bounds,
    trip the guard's breaker and are served from the histogram fallback
    (capped at the bound); the online auditor feeds observed exact counts
    back into the same guard, so a violated *bound* also surfaces.  With
    ``plan=FaultPlan(())`` the same stack must record zero violations.
    """
    db, native = _native(scale, seed)
    bus = TelemetryBus()
    injector = FaultInjector(
        plan if plan is not None else default_bound_fault_plan(seed),
        telemetry=bus,
    )
    guard = BoundGuard(
        injector.wrap_estimator(native.estimator),
        MCVJoinBoundEstimator(db),
        TraditionalCardinalityEstimator(db),
        breaker=CircuitBreaker(
            cooldown_ms=500.0,
            clock=injector.clock,
            name="bound_guard",
            telemetry=bus,
        ),
        telemetry=bus,
        tolerance=2.0,
    )
    bus.attach_gauge("fault_injector", injector.stats)
    bao = BaoOptimizer(native.with_estimator(guard), seed=seed)
    deployment = DeploymentManager(
        bao,
        native,
        ExecutionSimulator(db),
        telemetry=bus,
        stage=Stage.CANARY,
        canary_fraction=0.5,
        regression_threshold=3.0,
        policies=[RetrainCadence(bao, every=25), guard],
    )
    return _assemble(
        "bound_guard",
        deployment,
        _adhoc(db, n_queries, seed),
        seed=seed,
        n_sessions=n_sessions,
        config=None,
        audit_every=8,
        injector=injector,
        bound_guard=guard,
    )


def adversarial_drift_scenario(
    *,
    pessimistic: bool,
    scale: float = 0.3,
    seed: int = 0,
    n_queries: int = 120,
    n_sessions: int = 8,
) -> ServingScenario:
    """Optimistic vs pessimistic serving while join fan-out explodes.

    A LIVE deployment serves straight planner output
    (:class:`~repro.core.framework.PlannerModel`); halfway through the stream
    :func:`repro.bench.adversarial_hot_key_drift` piles new child rows
    onto a previously-cold parent key per parent table, so true join
    sizes through those keys explode while the *point* estimator keeps
    its pre-drift statistics (a learned model gone stale).  Every third
    request is a :func:`repro.bench.hot_key_probe_queries` probe pinned
    to the drift targets -- near-empty before the drift, the workload's
    tail after it.  The two arms differ only in planning mode:

    - ``pessimistic=False``: plans minimize expected cost under the stale
      point estimates -- the optimizer keeps choosing plans whose true
      intermediates are now enormous;
    - ``pessimistic=True``: ``risk="worst_case"`` minimizes cost under
      the certified upper bound; the bound sketches are refreshed at the
      drift point (a cheap statistics rebuild -- no model retraining),
      so post-drift plans are chosen against honest worst cases.

    Same seed, same workload, same drift either way: only the risk mode
    differs, which is what makes the p99 comparison in
    ``bench_p8_bounds.py`` an apples-to-apples gate.
    """
    db, native = _native(scale, seed)
    bounds = MCVJoinBoundEstimator(db)
    subject = Optimizer(
        db,
        estimator=TraditionalCardinalityEstimator(db),
        bound_estimator=bounds,
        risk="worst_case" if pessimistic else "expected",
    )
    name = "pessimistic" if pessimistic else "optimistic"
    targets = hot_key_targets(db)
    probes = hot_key_probe_queries(db, targets)
    queries = _adhoc(db, n_queries, seed)
    # Interleave probes so both pre- and post-drift halves cross the
    # (to-be-)hot keys: every third request cycles through the probe set.
    for i in range(2, len(queries), 3):
        queries[i] = probes[(i // 3) % len(probes)]
    deployment = DeploymentManager(
        PlannerModel(subject, name=name),
        native,
        ExecutionSimulator(db),
        stage=Stage.LIVE,
        monitor_native=False,
    )
    scenario = _assemble(
        f"adversarial_drift:{name}", deployment, queries, seed=seed, n_sessions=n_sessions, config=None
    )

    def _drift() -> None:
        adversarial_hot_key_drift(
            db, fraction=ADVERSARIAL_DRIFT_FRACTION, seed=seed, targets=targets
        )
        if pessimistic:
            bounds.refresh()
        # Stale point statistics stay stale -- that is the experiment --
        # but cached cardinalities are keyed off data_version and expire
        # on their own; clearing just bounds memory.
        if subject.cache is not None:
            subject.cache.clear()

    scenario.runtime.hooks[scenario.n_requests // 2] = _drift
    return scenario
