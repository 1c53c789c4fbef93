"""Drift detection and model updating (Warper [29], DDUp [25]).

The tutorial's §2.2.2 classes these as *post-processing* regression
eliminators: instead of filtering plans, they detect when the world has
changed and update the models.

- :class:`DDUpDetector` [25]: a two-stage out-of-distribution test.
  Stage 1 is cheap: compare per-column summary statistics of a fresh data
  sample against a reference snapshot (a bootstrap z-test on means and
  distinct-fractions).  Only when stage 1 flags a table does stage 2 run:
  a finer binned-histogram divergence test (Jensen-Shannon) that decides
  between *fine-tune* (small drift) and *retrain* (large drift) -- DDUp's
  detect / distill / update triage.

- :class:`Warper` [29]: when drift is detected, generates *additional
  training queries targeted at the drifted regions* (predicates drawn from
  the new data's value distribution), labels them with the exact executor,
  and updates the wrapped query-driven estimator -- "efficiently adapting
  learned cardinality estimators to data and workload drifts".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.cardest.base import BaseCardinalityEstimator
from repro.engine.executor import CardinalityExecutor
from repro.sql.generator import WorkloadGenerator
from repro.sql.query import Query
from repro.storage.catalog import Database

__all__ = ["DriftReport", "DDUpDetector", "Warper"]


@dataclass(frozen=True)
class DriftReport:
    """Outcome of a drift check on one table."""

    table: str
    drifted: bool
    stage1_score: float  # max |z| over column means
    stage2_divergence: float  # Jensen-Shannon divergence (0 when stage 2 skipped)
    action: str  # "none" | "fine_tune" | "retrain"


def _js_divergence(p: np.ndarray, q: np.ndarray) -> float:
    p = p / max(p.sum(), 1e-12)
    q = q / max(q.sum(), 1e-12)
    m = 0.5 * (p + q)

    def kl(a, b):
        mask = a > 0
        return float((a[mask] * np.log(a[mask] / b[mask])).sum())

    return 0.5 * kl(p, m) + 0.5 * kl(q, m)


class DDUpDetector:
    """Two-stage drift detector over a database's tables.

    Build it on the *reference* data (``snapshot``), then call
    :meth:`check` any time later; it compares the live tables against the
    snapshot without storing raw data (only summaries and histograms).
    """

    #: stage-1 z-score of a sampled column mean below which a table has not drifted
    stage1_z = 3.0
    #: stage-2 divergence below which a stage-1 alarm is dismissed
    fine_tune_js = 0.008
    #: stage-2 divergence from which a confirmed drift calls for a retrain
    retrain_js = 0.06
    n_bins = 24  # stage-2 histogram resolution
    sample = 2000  # rows sampled per column by the stage-1 test

    def __init__(
        self,
        db: Database,
        *,
        seed: int = 0,
        telemetry=None,
    ) -> None:
        """``telemetry`` is an optional :class:`repro.serve.TelemetryBus`
        (duck-typed: anything with ``event``/``incr``): every
        :meth:`check` emits its :class:`DriftReport`\\ s as
        ``drift_report`` events plus ``drift.*`` counters, so detections
        and triage actions are observable instead of silently returned."""
        self.db = db
        self.telemetry = telemetry
        self._rng = np.random.default_rng(seed)
        self._reference: dict[str, dict[str, dict]] = {}
        self.snapshot()

    def _column_summary(self, values: np.ndarray) -> dict:
        values = values.astype(float)
        lo, hi = float(values.min()), float(values.max())
        if hi <= lo:
            hi = lo + 1.0
        edges = np.linspace(lo, hi, self.n_bins + 1)
        hist, _ = np.histogram(values, bins=edges)
        return {
            "mean": float(values.mean()),
            "std": float(values.std()) or 1e-9,
            "n": values.shape[0],
            "edges": edges,
            "hist": hist.astype(float),
        }

    def snapshot(self) -> None:
        """(Re)take the reference snapshot from the current data."""
        self._reference = {}
        for tname, table in self.db.tables.items():
            cols = {}
            for cname in table.column_names:
                if table.column(cname).is_key:
                    continue
                cols[cname] = self._column_summary(table.values(cname))
            self._reference[tname] = cols

    def check_table(self, table: str) -> DriftReport:
        ref = self._reference.get(table)
        if ref is None:
            raise KeyError(f"no snapshot for table {table!r}")
        tbl = self.db.table(table)
        # Stage 1: cheap z-test on column means against the snapshot.
        max_z = 0.0
        for cname, summary in ref.items():
            values = tbl.values(cname).astype(float)
            take = self._rng.choice(
                values.shape[0], size=min(self.sample, values.shape[0]), replace=False
            )
            sample = values[take]
            se = summary["std"] / math.sqrt(max(sample.shape[0], 1))
            z = abs(sample.mean() - summary["mean"]) / max(se, 1e-12)
            max_z = max(max_z, z)
        if max_z < self.stage1_z:
            return DriftReport(table, False, max_z, 0.0, "none")
        # Stage 2: histogram divergence decides fine-tune vs retrain.
        max_js = 0.0
        for cname, summary in ref.items():
            values = tbl.values(cname).astype(float)
            hist, _ = np.histogram(values, bins=summary["edges"])
            max_js = max(max_js, _js_divergence(summary["hist"], hist.astype(float)))
        if max_js < self.fine_tune_js:
            return DriftReport(table, False, max_z, max_js, "none")
        action = "retrain" if max_js >= self.retrain_js else "fine_tune"
        return DriftReport(table, True, max_z, max_js, action)

    def check(self) -> list[DriftReport]:
        """Drift reports for every snapshotted table (emitted as telemetry
        ``drift_report`` events when a bus is attached)."""
        reports = [self.check_table(t) for t in self._reference]
        if self.telemetry is not None:
            self.telemetry.incr("drift.checks")
            for r in reports:
                if r.drifted:
                    self.telemetry.incr("drift.detected")
                    self.telemetry.incr(f"drift.action.{r.action}")
                    self.telemetry.event(
                        "drift_report",
                        table=r.table,
                        drifted=r.drifted,
                        stage1_score=round(r.stage1_score, 6),
                        stage2_divergence=round(r.stage2_divergence, 6),
                        action=r.action,
                    )
        return reports

    def drifted_tables(self) -> list[str]:
        return [r.table for r in self.check() if r.drifted]


class Warper:
    """Targeted query generation + model update on drift (Warper [29]).

    Wraps an estimator that learns from queries (query-driven or hybrid;
    anything else is a ``TypeError``).  :meth:`adapt` generates
    extra training queries whose predicate constants are drawn from the
    *drifted tables' current data* (so the new regions are covered),
    labels them with the exact executor, and refits the estimator on the
    union of retained old and new examples.
    """

    def __init__(
        self,
        db: Database,
        estimator,
        *,
        detector: DDUpDetector | None = None,
        queries_per_table: int = 60,
        keep_old: int = 200,
        seed: int = 0,
        telemetry=None,
        experience=None,
        history: list[tuple[Query, float]] | None = None,
    ) -> None:
        """``telemetry`` (optional bus) makes every adaptation observable
        (``warper_adapt`` events, ``drift.warper_*`` counters);
        ``experience`` (optional :class:`repro.lifecycle.ExperienceStore`)
        receives the generated drift queries with their exact labels, so
        the lifecycle loop retains what the model was adapted on;
        ``history`` seeds the retained-example buffer without an initial
        :meth:`fit_initial` (used when adapting a cloned estimator that
        was trained elsewhere)."""
        if not (
            isinstance(estimator, BaseCardinalityEstimator)
            and estimator.learns_from_queries()
        ):
            raise TypeError("Warper needs an estimator that learns from queries")
        self.db = db
        self.estimator = estimator
        self.detector = (
            detector
            if detector is not None
            else DDUpDetector(db, seed=seed, telemetry=telemetry)
        )
        self.queries_per_table = queries_per_table
        self.keep_old = keep_old
        self.seed = seed
        self.telemetry = telemetry
        self.experience = experience
        self._executor = CardinalityExecutor(db)
        self._history: list[tuple[Query, float]] = list(history or [])
        self.adaptations = 0

    def fit_initial(self, queries: list[Query], cards: np.ndarray) -> None:
        """Initial training (also seeds the retained-example buffer)."""
        self.estimator.fit(queries, cards)
        self._history = list(zip(queries, [float(c) for c in cards]))

    def _targeted_queries(self, tables: list[str]) -> list[Query]:
        """Queries over the drifted tables with fresh-data constants."""
        gen = WorkloadGenerator(self.db, seed=self.seed + self.adaptations)
        out: list[Query] = []
        for t in tables:
            out.extend(gen.single_table_workload(t, self.queries_per_table))
            # Plus join queries touching the drifted table.
            out.extend(
                q
                for q in gen.workload(self.queries_per_table // 3, 2, 3, require_predicate=True)
                if t in q.tables
            )
        return out

    def adapt(self) -> list[DriftReport]:
        """Run detection; on drift, generate+label queries and refit.

        Returns the drift reports (empty action list means nothing done).
        """
        reports = self.detector.check()
        drifted = [r.table for r in reports if r.drifted]
        if not drifted:
            return reports
        self._executor.clear_cache()
        new_queries = self._targeted_queries(drifted)
        new_cards = [float(self._executor.cardinality(q)) for q in new_queries]
        retained = self._history[-self.keep_old :]
        queries = [q for q, _ in retained] + new_queries
        cards = np.array([c for _, c in retained] + new_cards)
        self.estimator.fit(queries, cards)
        self._history = list(zip(queries, cards.tolist()))
        self.detector.snapshot()  # the new state becomes the reference
        self.adaptations += 1
        if self.experience is not None:
            self.experience.add_drift_queries(new_queries, new_cards)
        if self.telemetry is not None:
            self.telemetry.incr("drift.warper_adaptations")
            self.telemetry.incr("drift.warper_queries", by=len(new_queries))
            self.telemetry.event(
                "warper_adapt",
                tables=",".join(sorted(drifted)),
                new_queries=len(new_queries),
                retained=len(retained),
                adaptation=self.adaptations,
            )
        return reports
