"""Risk-bounded plan costing: expected cost blended with worst-case cost.

Regressions, not averages, block deployment of learned planners -- a plan
that is optimal under a (learned, possibly wrong) point estimate can be
catastrophic under the true cardinalities.  Risk-bounded planning costs
every candidate under a *certified upper bound* (:mod:`repro.cardest.
bounds`) as well as the point estimate, and picks the plan minimizing

    ``(1 - risk_lambda) * cost(expected) + risk_lambda * cost(worst)``

``risk_lambda=1`` is pure worst-case minimization (the pessimistic
optimizer of the MOLP line of work); intermediate values trade average
performance against tail risk.

The integration is deliberately enumeration-free: ``enumerate_dp`` and
``enumerate_greedy`` treat cardinalities opaquely -- they fetch them from
the coster and hand them straight back to ``join_operator_cost`` --
so a :class:`RiskCoster` can thread a :class:`RiskCard` (expected, worst)
pair through the existing DP/greedy machinery without touching either
algorithm.  Both underlying costers share one
:class:`~repro.optimizer.CardinalityCache`; their estimator tags differ,
so expected and bound cardinalities never collide.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import ConfigError
from repro.core.interfaces import ServePolicy
from repro.optimizer.cost import PlanCoster

__all__ = ["RiskCard", "RiskCoster", "RiskLambdaTuner", "RISK_MODES"]

#: the planner's accepted ``risk=`` values
RISK_MODES = ("expected", "worst_case", "blended")


@dataclass(frozen=True)
class RiskCard:
    """A cardinality under both beliefs: point estimate and certified bound."""

    expected: float
    worst: float


def _expected(value) -> float:
    return value.expected if isinstance(value, RiskCard) else float(value)


def _worst(value) -> float:
    return value.worst if isinstance(value, RiskCard) else float(value)


class RiskCoster:
    """A :class:`PlanCoster`-shaped facade over an (expected, bound) pair.

    Cardinality queries return :class:`RiskCard` pairs; cost queries
    return the lambda-blend of the two costers' answers, each evaluated
    on its own belief.  Drop-in for every coster call the enumerators
    make (``planning_tag`` / ``subquery_cardinalities`` /
    ``subquery_cardinality`` / ``scan_cost`` / ``tagged_scan_cost`` /
    ``join_operator_cost`` / ``cost``); its planning tag is the pair of
    the two costers' tags, which the tagged calls split.
    """

    def __init__(
        self,
        expected: PlanCoster,
        bound: PlanCoster,
        risk_lambda: float = 1.0,
    ) -> None:
        risk_lambda = float(risk_lambda)
        if not 0.0 <= risk_lambda <= 1.0:
            raise ConfigError("risk_lambda must be in [0, 1]")
        self.expected = expected
        self.bound = bound
        self.risk_lambda = risk_lambda
        self.db = expected.db
        self.ops = expected.ops
        self.cache = expected.cache

    def _blend(self, expected_cost: float, worst_cost: float) -> float:
        lam = self.risk_lambda
        return (1.0 - lam) * expected_cost + lam * worst_cost

    # -- cardinalities (RiskCard-valued) --------------------------------------------

    def estimate_cardinality(self, query) -> RiskCard:
        return RiskCard(
            self.expected.estimate_cardinality(query),
            self.bound.estimate_cardinality(query),
        )

    def subquery_cardinality(self, query, tables) -> RiskCard:
        return RiskCard(
            self.expected.subquery_cardinality(query, tables),
            self.bound.subquery_cardinality(query, tables),
        )

    def planning_tag(self) -> tuple:
        """Both costers' :meth:`PlanCoster.planning_tag`, expected first."""
        return (self.expected.planning_tag(), self.bound.planning_tag())

    def subquery_cardinalities(self, query, subsets, tag) -> dict:
        exp = self.expected.subquery_cardinalities(query, subsets, tag[0])
        wor = self.bound.subquery_cardinalities(query, subsets, tag[1])
        return {tables: RiskCard(exp[tables], wor[tables]) for tables in exp}

    # -- costs (blended) --------------------------------------------------------------

    def scan_cost(self, node) -> float:
        return self.tagged_scan_cost(node, self.planning_tag())

    def tagged_scan_cost(self, node, tag) -> float:
        return self._blend(
            self.expected.tagged_scan_cost(node, tag[0]),
            self.bound.tagged_scan_cost(node, tag[1]),
        )

    def join_operator_cost(
        self, method, left_rows, right_rows, out_rows, right_node
    ) -> float:
        expected_cost = self.expected.join_operator_cost(
            method,
            _expected(left_rows),
            _expected(right_rows),
            _expected(out_rows),
            right_node,
        )
        worst_cost = self.bound.join_operator_cost(
            method,
            _worst(left_rows),
            _worst(right_rows),
            _worst(out_rows),
            right_node,
        )
        return self._blend(expected_cost, worst_cost)

    def cost(self, plan) -> float:
        return self._blend(self.expected.cost(plan), self.bound.cost(plan))


class RiskLambdaTuner(ServePolicy):
    """Closed-loop ``risk_lambda`` control from observed bound violations.

    The blend weight in risk-bounded planning is a trust dial: how much
    should the planner believe the point estimator over the certified
    bound?  The serving-side :class:`~repro.faults.BoundGuard` measures
    exactly that trust empirically -- its violation rate is the fraction
    of served estimates (and audited counts) that broke their
    certificates.  The tuner closes the loop: every ``window`` new guard
    checks it compares the *windowed* violation rate against
    ``target_rate`` and either raises ``optimizer.risk_lambda`` by
    ``step`` (the estimator is lying; plan more pessimistically) or
    decays it by ``decay`` (a clean window; drift back toward expected-
    cost planning).  The planner reads ``risk_lambda`` per ``plan()``
    call, so adjustments take effect on the very next planning.

    Deterministic: state advances only on :meth:`tick` (as a deployment
    policy it ticks once per served query, inside the single-writer
    core), and every adjustment is a pure function of the guard's
    counters.
    """

    def __init__(
        self,
        optimizer,
        bound_guard,
        *,
        target_rate: float = 0.05,
        window: int = 25,
        step: float = 0.2,
        decay: float = 0.05,
        min_lambda: float = 0.0,
        max_lambda: float = 1.0,
        telemetry=None,
    ) -> None:
        if not 0.0 <= target_rate <= 1.0:
            raise ConfigError("target_rate must be in [0, 1]")
        if window < 1:
            raise ConfigError("window must be >= 1")
        if step <= 0 or decay < 0:
            raise ConfigError("need step > 0 and decay >= 0")
        if not 0.0 <= min_lambda <= max_lambda <= 1.0:
            raise ConfigError("need 0 <= min_lambda <= max_lambda <= 1")
        self.optimizer = optimizer
        self.bound_guard = bound_guard
        self.target_rate = float(target_rate)
        self.window = int(window)
        self.step = float(step)
        self.decay = float(decay)
        self.min_lambda = float(min_lambda)
        self.max_lambda = float(max_lambda)
        self.telemetry = telemetry
        self.windows_observed = 0
        self.raises = 0
        self.decays = 0
        self._checks_at_window = self._guard_checks()
        self._violations_at_window = self.bound_guard.violations

    def _guard_checks(self) -> int:
        return self.bound_guard.checked + self.bound_guard.counts_observed

    def attach(self, deployment) -> None:
        if self.telemetry is None:
            self.telemetry = deployment.telemetry
        deployment.telemetry.attach_gauge("risk_tuner", self.stats)

    def on_decision(self, deployment, decision) -> None:
        self.tick()

    def tick(self) -> float:
        """Advance the control loop; returns the current ``risk_lambda``.

        No-op until the guard has accumulated ``window`` checks since the
        previous adjustment.
        """
        checks = self._guard_checks()
        new_checks = checks - self._checks_at_window
        if new_checks < self.window:
            return self.optimizer.risk_lambda
        rate = (
            self.bound_guard.violations - self._violations_at_window
        ) / new_checks
        self._checks_at_window = checks
        self._violations_at_window = self.bound_guard.violations
        self.windows_observed += 1
        before = float(self.optimizer.risk_lambda)
        if rate > self.target_rate:
            after = min(self.max_lambda, before + self.step)
            self.raises += 1
            reason = "violations"
        else:
            after = max(self.min_lambda, before - self.decay)
            self.decays += 1
            reason = "clean_window"
        if after != before:
            self.optimizer.risk_lambda = after
            if self.telemetry is not None:
                self.telemetry.incr(f"risk_tuner.{reason}")
                self.telemetry.event(
                    "risk_lambda_adjusted",
                    reason=reason,
                    window_rate=float(rate),
                    from_lambda=before,
                    to_lambda=after,
                )
        return float(self.optimizer.risk_lambda)

    def stats(self) -> dict[str, float]:
        """Gauge-friendly snapshot (numbers only)."""
        return {
            "risk_lambda": float(self.optimizer.risk_lambda),
            "windows_observed": float(self.windows_observed),
            "raises": float(self.raises),
            "decays": float(self.decays),
            "target_rate": float(self.target_rate),
        }
