"""The promotion leaderboard: validate, time, promote, demote, learn.

QueryTorque's state machine, on this repo's machinery.  Every submitted
query runs the rule library (filtered by the retrieval store's per-cluster
rule weights); each candidate moves through::

    candidate --validation fails--> MISMATCH   (anti-pattern: rule is broken here)
    candidate --count intractable-> SKIPPED    (never promoted, never penalized)
    candidate --speedup >= 1.05--> PROMOTED    (gold example; servable rewrites
                                                enter the serving plan lookup)
    candidate --speedup <= 0.95--> DEMOTED     (anti-pattern for this cluster)
    candidate --otherwise--------> REJECTED    (neutral: no example recorded)

Speedups are measured on the :class:`~repro.engine.simulator.
ExecutionSimulator` (deterministic virtual latency) by planning both sides
with the same optimizer; union candidates are timed as the sum of their
branch latencies.  Promotions are stamped with ``db.data_version`` and
lazily invalidated when the data drifts -- a promoted rewrite validated
against yesterday's data never serves today's.

Everything the leaderboard does is mirrored onto a
:class:`~repro.serve.telemetry.TelemetryBus` (``rewrite.*`` counters plus
promote / demote events), and :meth:`snapshot` / :meth:`to_json` export a
canonically-sorted, byte-identical-under-fixed-seed view.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

from repro.engine.executor import CardinalityExecutor
from repro.engine.simulator import ExecutionSimulator
from repro.optimizer.planner import Optimizer
from repro.sql.query import Query, query_hash
from repro.sql.transforms import exact_count
from repro.storage.catalog import Database

from repro.rewrite.retrieval import GoldExampleStore
from repro.rewrite.rules import REWRITE_RULES, RewriteCandidate
from repro.rewrite.validate import RewriteValidator
from repro.rewrite.values import ValuesCatalog

__all__ = ["LeaderboardEntry", "PromotionLeaderboard"]

#: terminal entry states
MISMATCH = "mismatch"
SKIPPED = "skipped"
PROMOTED = "promoted"
DEMOTED = "demoted"
REJECTED = "rejected"


@dataclass(frozen=True)
class LeaderboardEntry:
    """One (query, rule) outcome on the leaderboard."""

    query_hash: str
    rule: str
    status: str
    speedup: float
    baseline_ms: float
    rewritten_ms: float
    note: str
    servable: bool
    n_queries: int
    data_version: int


class PromotionLeaderboard:
    """Oracle-gated, simulator-timed rewrite promotion.

    Parameters
    ----------
    db:
        The live database; values relations attach to it in place.  The
        leaderboard's own :attr:`optimizer` plans originals and rewrites;
        a serving stack plans with it too (as
        :class:`~repro.rewrite.optimizer.RewritingOptimizer`
        does), so values-relation statistics stay in sync.
    store:
        The :class:`~repro.rewrite.retrieval.GoldExampleStore`: rules whose
        cluster weight falls below ``selection_cutoff`` are not attempted,
        and promotions / demotions are recorded back.
    telemetry:
        Optional :class:`~repro.serve.telemetry.TelemetryBus` receiving
        ``rewrite.*`` counters and events.
    """

    #: measured speedup at or above which a validated rewrite is promoted,
    #: at or below which it is recorded as an anti-pattern
    promote_threshold = 1.05
    demote_threshold = 0.95
    #: rules whose retrieval weight falls below this are not attempted
    selection_cutoff = 0.5

    def __init__(
        self,
        db: Database,
        *,
        store: GoldExampleStore,
        telemetry=None,
    ) -> None:
        self.db = db
        self.optimizer = Optimizer(db)
        self.validator = RewriteValidator(db)
        self.executor: CardinalityExecutor = self.validator.executor
        # dedicated, so measurement does not pollute a serving simulator's counters
        self.simulator = ExecutionSimulator(db, executor=self.executor)
        self.store = store
        self.telemetry = telemetry
        self.catalog = ValuesCatalog(db, stats=self.optimizer.stats)
        self.rules = dict(REWRITE_RULES)
        self._entries: list[LeaderboardEntry] = []
        self._by_query: dict[str, list[LeaderboardEntry]] = {}
        self._promoted: dict[str, tuple[RewriteCandidate, LeaderboardEntry]] = {}
        #: every promotion in submission order (union splits included, even
        #: though only servable single-query rewrites enter ``_promoted``)
        self.promotions: list[tuple[RewriteCandidate, LeaderboardEntry]] = []
        self.counters = {
            "submitted": 0,
            "candidates": 0,
            "validated": 0,
            "mismatches": 0,
            "skipped": 0,
            "promoted": 0,
            "demoted": 0,
            "rejected": 0,
            "anti_patterns": 0,
            "skipped_by_weight": 0,
            "stale_invalidations": 0,
            "served": 0,
        }
        if telemetry is not None:
            telemetry.attach_gauge("rewrite", self.stats)

    # -- internals ---------------------------------------------------------------

    def _incr(self, name: str) -> None:
        self.counters[name] += 1
        if self.telemetry is not None:
            self.telemetry.incr(f"rewrite.{name}")

    def _time(self, queries: tuple[Query, ...]) -> float:
        return sum(
            self.simulator.execute(self.optimizer.plan(q)).latency_ms
            for q in queries
        )

    # -- submission --------------------------------------------------------------

    def submit(self, query: Query) -> list[LeaderboardEntry]:
        """Run every selected rule over the query; idempotent per query."""
        qh = query_hash(query)
        cached = self._by_query.get(qh)
        if cached is not None:
            return cached
        self._incr("submitted")
        baseline_ms = self._time((query,))
        baseline_count = exact_count(query, self.executor)
        weights = self.store.rule_weights(query, list(self.rules))
        entries: list[LeaderboardEntry] = []
        best: tuple[float, RewriteCandidate, LeaderboardEntry] | None = None
        for name, rule in self.rules.items():
            if weights[name] < self.selection_cutoff:
                self._incr("skipped_by_weight")
                continue
            candidate = rule.apply(self.db, query, catalog=self.catalog)
            if candidate is None:
                continue
            self._incr("candidates")
            result = self.validator.validate(candidate, baseline=baseline_count)
            speedup, rewritten_ms = 0.0, 0.0
            if result.mismatch:
                status = MISMATCH
                self._incr("mismatches")
                self._incr("anti_patterns")
                self.store.record_anti(query, name, 0.0)
            elif result.skipped:
                status = SKIPPED
                self._incr("skipped")
            else:
                self._incr("validated")
                rewritten_ms = self._time(candidate.queries)
                speedup = baseline_ms / max(rewritten_ms, 1e-9)
                if speedup >= self.promote_threshold:
                    status = PROMOTED
                    self._incr("promoted")
                    self.store.record_gold(query, name, speedup)
                elif speedup <= self.demote_threshold:
                    status = DEMOTED
                    self._incr("demoted")
                    self._incr("anti_patterns")
                    self.store.record_anti(query, name, speedup)
                else:
                    status = REJECTED
                    self._incr("rejected")
            entry = LeaderboardEntry(
                query_hash=qh,
                rule=name,
                status=status,
                speedup=round(speedup, 6),
                baseline_ms=round(baseline_ms, 6),
                rewritten_ms=round(rewritten_ms, 6),
                note=candidate.note,
                servable=candidate.servable,
                n_queries=len(candidate.queries),
                data_version=self.db.data_version,
            )
            entries.append(entry)
            if self.telemetry is not None and status in (PROMOTED, DEMOTED):
                self.telemetry.event(
                    f"rewrite_{status}",
                    query_hash=qh,
                    rule=name,
                    speedup=entry.speedup,
                )
            if status is PROMOTED:
                self.promotions.append((candidate, entry))
                if candidate.servable and (best is None or speedup > best[0]):
                    best = (speedup, candidate, entry)
        if best is not None:
            self._promoted[qh] = (best[1], best[2])
        self._by_query[qh] = entries
        self._entries.extend(entries)
        return entries

    def submit_workload(self, queries: list[Query]) -> list[LeaderboardEntry]:
        out: list[LeaderboardEntry] = []
        for q in queries:
            out.extend(self.submit(q))
        return out

    # -- serving lookups ---------------------------------------------------------

    def promoted_for(
        self, query: Query
    ) -> tuple[RewriteCandidate, LeaderboardEntry] | None:
        """The best servable promoted rewrite, unless the data drifted.

        A promotion validated at one ``data_version`` is dropped (and
        counted as a stale invalidation) the first time it is looked up
        after the data changed; resubmitting the query re-validates.
        """
        qh = query_hash(query)
        hit = self._promoted.get(qh)
        if hit is None:
            return None
        if hit[1].data_version != self.db.data_version:
            del self._promoted[qh]
            self._incr("stale_invalidations")
            return None
        return hit

    def observe_served(self, query: Query, rule: str, latency_ms: float) -> None:
        """Account one production serve of a promoted rewrite."""
        self._incr("served")
        if self.telemetry is not None:
            self.telemetry.observe("rewrite.served_latency_ms", latency_ms)

    # -- introspection -----------------------------------------------------------

    @property
    def entries(self) -> tuple[LeaderboardEntry, ...]:
        return tuple(self._entries)

    def promoted_entries(self) -> list[LeaderboardEntry]:
        return [e for e in self._entries if e.status == PROMOTED]

    def geomean_promoted(self) -> float:
        """Geometric-mean speedup over promoted entries (1.0 when empty)."""
        speedups = [e.speedup for e in self.promoted_entries()]
        if not speedups:
            return 1.0
        return math.exp(sum(math.log(s) for s in speedups) / len(speedups))

    def stats(self) -> dict:
        out = dict(self.counters)
        out["geomean_promoted"] = round(self.geomean_promoted(), 6)
        out["servable_promotions"] = len(self._promoted)
        out["values_relations"] = self.catalog.attachments
        return out

    def snapshot(self) -> dict:
        """Canonically-sorted full state; byte-identical under a fixed seed."""
        return {
            "entries": [
                asdict(e)
                for e in sorted(
                    self._entries, key=lambda e: (e.query_hash, e.rule)
                )
            ],
            "promoted": {
                qh: {"rule": entry.rule, "speedup": entry.speedup}
                for qh, (_, entry) in sorted(self._promoted.items())
            },
            "stats": self.stats(),
        }

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), indent=2, sort_keys=True)
