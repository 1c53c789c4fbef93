"""Champion-vs-challenger evaluation gate.

Lehmann et al.'s core warning is that learned optimizers are deployed on
the strength of *aggregate* benchmarks while regressing badly on
individual queries.  :class:`EvalGate` is the pre-deployment defence: a
retrained challenger is evaluated head-to-head against the current
champion on a **held-out workload** (never the experience data it was
trained on), and only a challenger that is no worse on every guarded
axis is allowed to enter staged deployment -- and then only at SHADOW,
where :class:`~repro.serve.deployment.DeploymentManager` watches it on
live traffic before any promotion.

Guarded axes (each with an explicit threshold):

- **latency quantiles** -- challenger p50/p95 plan latency must stay
  within ``max_p50_ratio`` / ``max_p95_ratio`` of the champion's;
- **estimation accuracy** -- challenger p90 q-error must stay within
  ``max_qerror_ratio`` of the champion's;
- **per-query regressions** -- the fraction of held-out queries where the
  challenger's plan is more than :data:`REGRESSION_MARGIN` times slower
  than the champion's must stay below ``max_regression_rate`` (the
  tail-latency axis aggregate ratios hide).

Everything is recomputed at evaluation time with the deterministic
simulator/executor, so the gate's verdict is reproducible -- with one
exception, the metric memo: a model's metrics on the held-out workload are
a function of its content and of the data, so they are kept per (content
fingerprint, ``data_version``) and a model measured before at the same
data version is not measured again.  Only metrics are kept, never a
verdict (the thresholds may change between evaluations); an entry is kept
only when the evaluation left the model's fingerprint unchanged, so a
model whose ``choose_plan`` draws from an RNG or records state is always
measured afresh; and entries live for one ``data_version``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cardest.base import q_error
from repro.core.errors import ConfigError
from repro.core.interfaces import batch_estimate
from repro.lifecycle.registry import model_fingerprint

__all__ = ["GateReport", "EvalGate"]

#: the q-error quantile the accuracy axis compares
QERROR_QUANTILE = 0.9
#: a held-out query counts as regressed past this challenger/champion ratio
REGRESSION_MARGIN = 1.25


@dataclass(frozen=True)
class GateReport:
    """Verdict plus the evidence it was based on."""

    passed: bool
    reasons: tuple[str, ...]  # failure reasons; empty when passed
    champion: dict
    challenger: dict

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "reasons": list(self.reasons),
            "champion": self.champion,
            "challenger": self.challenger,
        }


class EvalGate:
    """Head-to-head champion/challenger evaluation on held-out queries.

    Parameters
    ----------
    queries:
        The held-out workload.  Must be disjoint from the experience
        stream for the verdict to mean anything; the lifecycle scenario
        splits its generated workload up front.
    simulator:
        The :class:`repro.engine.simulator.ExecutionSimulator` the latency
        axes measure each model's ``choose_plan(query)`` plans on.
    executor:
        The :class:`repro.engine.executor.CardinalityExecutor` whose exact
        cardinalities score each model's ``estimator`` on q-error.
    telemetry:
        The bus each verdict is counted and logged on.
    shared:
        Infrastructure the memo's fingerprints skip (see
        :func:`~repro.lifecycle.registry.model_fingerprint`).  Give it the
        registry's ``shared``, so a digest the registry took is a memo key.

    A challenger fails when its p50 / p95 latency or its q-error quantile
    exceeds the champion's by more than the ratio below, or when more than
    ``max_regression_rate`` of the queries regress.
    """

    max_p50_ratio = 1.15
    max_p95_ratio = 1.30
    max_qerror_ratio = 1.25
    max_regression_rate = 0.25

    def __init__(
        self,
        queries,
        *,
        simulator,
        executor,
        telemetry,
        shared=(),
    ) -> None:
        self.queries = list(queries)
        if not self.queries:
            raise ConfigError("eval gate needs a non-empty held-out workload")
        self.simulator = simulator
        self.executor = executor
        self.telemetry = telemetry
        self.shared = tuple(shared)
        self.evaluations = 0
        self._db = simulator.db
        # fingerprint -> (metrics, latencies), all measured at _memo_version
        self._memo: dict[str, tuple[dict, np.ndarray]] = {}
        self._memo_version: int | None = None

    # -- measurement -----------------------------------------------------------

    def _latencies(self, model) -> np.ndarray:
        lats = []
        for q in self.queries:
            plan = model.choose_plan(q).plan
            lats.append(self.simulator.execute(plan).latency_ms)
        return np.array(lats)

    def _qerrors(self, model) -> np.ndarray:
        estimates = batch_estimate(model.estimator, self.queries)
        return np.array(
            [
                q_error(e, self.executor.cardinality(q))
                for e, q in zip(estimates, self.queries)
            ]
        )

    def _metrics(self, model) -> tuple[dict, np.ndarray]:
        lats = self._latencies(model)
        qerrs = self._qerrors(model)
        metrics = {
            "n_queries": len(self.queries),
            "p50_latency_ms": round(float(np.percentile(lats, 50)), 6),
            "p95_latency_ms": round(float(np.percentile(lats, 95)), 6),
            "qerror_q": round(float(np.quantile(qerrs, QERROR_QUANTILE)), 6),
            "qerror_max": round(float(qerrs.max()), 6),
        }
        return metrics, lats

    def _measured(
        self, model, fingerprint: str | None = None
    ) -> tuple[dict, np.ndarray]:
        """:meth:`_metrics` through the memo; ``fingerprint`` is the model's
        digest under :attr:`shared` when the caller already took it.

        The champion's digest is walked afresh on every evaluation rather
        than read from the registry: a serving
        :class:`repro.core.framework.LearnedOptimizer` mutates its risk
        model in ``record_feedback``, so the fingerprint registered for the
        live version can be stale, and a stale key would return the memo
        entry of a model that no longer exists."""
        version = self._db.data_version
        if version != self._memo_version:
            self._memo.clear()
            self._memo_version = version
        if fingerprint is None:
            fingerprint = model_fingerprint(model, shared=self.shared)
        measured = self._memo.get(fingerprint)
        if measured is None:
            measured = self._metrics(model)
            if model_fingerprint(model, shared=self.shared) == fingerprint:
                self._memo[fingerprint] = measured
        metrics, lats = measured
        return dict(metrics), lats

    # -- verdict ---------------------------------------------------------------

    def evaluate(
        self, champion, challenger, *, challenger_fingerprint: str
    ) -> GateReport:
        """Compare the two models; the challenger passes only if it stays
        within every configured ratio of the champion.

        ``challenger_fingerprint`` is the challenger's digest under
        :attr:`shared` (the registry took it at registration)."""
        champ_metrics, champ_lats = self._measured(champion)
        chall_metrics, chall_lats = self._measured(challenger, challenger_fingerprint)
        reasons: list[str] = []

        def ratio_check(key: str, limit: float, label: str) -> None:
            ratio = chall_metrics[key] / max(champ_metrics[key], 1e-9)
            if ratio > limit:
                reasons.append(f"{label} ratio {ratio:.3f} > {limit:g}")

        ratio_check("p50_latency_ms", self.max_p50_ratio, "p50 latency")
        ratio_check("p95_latency_ms", self.max_p95_ratio, "p95 latency")
        ratio_check("qerror_q", self.max_qerror_ratio, "q-error")
        rate = float((chall_lats > champ_lats * REGRESSION_MARGIN).mean())
        chall_metrics["regression_rate"] = round(rate, 6)
        if rate > self.max_regression_rate:
            reasons.append(f"regression rate {rate:.3f} > {self.max_regression_rate:g}")
        report = GateReport(
            passed=not reasons,
            reasons=tuple(reasons),
            champion=champ_metrics,
            challenger=chall_metrics,
        )
        self.evaluations += 1
        self.telemetry.incr("gate.passed" if report.passed else "gate.failed")
        self.telemetry.event(
            "gate_evaluated",
            passed=report.passed,
            reasons=";".join(reasons),
            champion_p50=champ_metrics["p50_latency_ms"],
            challenger_p50=chall_metrics["p50_latency_ms"],
            champion_qerror=champ_metrics["qerror_q"],
            challenger_qerror=chall_metrics["qerror_q"],
        )
        return report
