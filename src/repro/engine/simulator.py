"""Deterministic plan-execution simulator (the repo's "PostgreSQL executor").

Executing a plan means: compute the *true* cardinality of every plan node
(one :meth:`~repro.engine.executor.CardinalityExecutor.plan_cardinalities`
pass of the exact executor: each node counted once, a join reading its
children's counts from the same dict), feed those cardinalities through the
shared operator cost formulas, sum in plan pre-order, and convert to
milliseconds.  An index scan's fetched rows are one more exact count only
when it has a residual filter: with one predicate the fetch is the scan's
own output.  Optionally a small signature-seeded lognormal noise term
models run-to-run variance.

Because true cardinalities are exact, a plan picked using bad estimates
genuinely runs slower here -- the feedback loop every learned optimizer in
this repo trains on.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.core.records import slot_init
from repro.engine.cost_formulas import OperatorCosts, TRUE_HARDWARE_CONSTANTS
from repro.engine.executor import CardinalityExecutor
from repro.engine.plans import JoinMethod, JoinNode, Plan, PlanNode, ScanMethod, ScanNode
from repro.sql.query import Query
from repro.storage.catalog import Database

__all__ = ["SimulatorConfig", "ExecutionResult", "ExecutionSimulator"]


@dataclass(frozen=True)
class SimulatorConfig:
    """Execution-simulator knobs.

    ``noise_sigma`` is the std-dev of a multiplicative lognormal noise term;
    0 (default) gives perfectly repeatable latencies.  ``ms_per_cost_unit``
    converts planner cost units to milliseconds, and the simulated hardware
    runs at :data:`repro.engine.cost_formulas.TRUE_HARDWARE_CONSTANTS`,
    which deliberately diverge from the planner's beliefs (see that module).
    """

    ms_per_cost_unit: ClassVar[float] = 0.05
    noise_sigma: float = 0.0
    noise_seed: int = 0


@slot_init
@dataclass(frozen=True, slots=True)
class ExecutionResult:
    """Outcome of executing one plan."""

    plan: Plan
    latency_ms: float
    cardinality: int
    total_cost: float
    node_cards: dict[PlanNode, int]
    node_costs: dict[PlanNode, float]


class ExecutionSimulator:
    """Executes plans against a database, returning latency + cardinality."""

    def __init__(
        self,
        db: Database,
        config: SimulatorConfig | None = None,
        executor: CardinalityExecutor | None = None,
    ) -> None:
        self.db = db
        self.config = config if config is not None else SimulatorConfig()
        self.executor = executor if executor is not None else CardinalityExecutor(db)
        self.costs = OperatorCosts(TRUE_HARDWARE_CONSTANTS)
        self.queries_executed = 0
        self.total_latency_ms = 0.0

    # -- node costs ---------------------------------------------------------------

    def _index_fetched(self, node: ScanNode, out_rows: int) -> int:
        """Rows fetched by the index predicate (first predicate by
        canonical order) before residual filtering.  With no residual the
        fetch is the scan's output, ``out_rows``: a scan carries the query's
        predicates on its table, so its one predicate is its own probe."""
        if not node.predicates:
            return self.db.table(node.table).n_rows
        if len(node.predicates) == 1:
            return out_rows
        single = Query((node.table,), (), (node.predicates[0],))
        return self.executor.cardinality(single)

    def _scan_cost(self, node: ScanNode, out_rows: int) -> float:
        base_rows = self.db.table(node.table).n_rows
        n_preds = len(node.predicates)
        if node.method is ScanMethod.SEQ:
            return self.costs.seq_scan(base_rows, n_preds)
        return self.costs.index_scan(
            base_rows, self._index_fetched(node, out_rows), n_preds
        )

    def _join_cost(
        self, node: JoinNode, left_rows: int, right_rows: int, out_rows: int
    ) -> float:
        if node.method is JoinMethod.HASH:
            return self.costs.hash_join(left_rows, right_rows, out_rows)
        if node.method is JoinMethod.MERGE:
            return self.costs.merge_join(left_rows, right_rows, out_rows)
        # Nested loop: indexed form available when the inner (right) side is
        # a bare table scan -- the executor can probe the base table's index
        # on the join column.
        if isinstance(node.right, ScanNode):
            inner_base = self.db.table(node.right.table).n_rows
            return self.costs.nested_loop_indexed(left_rows, inner_base, out_rows)
        return self.costs.nested_loop_naive(left_rows, right_rows, out_rows)

    # -- execution ----------------------------------------------------------------

    def execute(self, plan: Plan) -> ExecutionResult:
        """Run the plan; returns latency, result cardinality and per-node stats."""
        cards = self.executor.plan_cardinalities(plan)
        node_cards: dict[PlanNode, int] = {}
        node_costs: dict[PlanNode, float] = {}
        total = 0.0
        for node in plan.walk():
            card = node_cards[node] = cards[node]
            if isinstance(node, ScanNode):
                cost = self._scan_cost(node, card)
            else:
                assert isinstance(node, JoinNode)
                cost = self._join_cost(
                    node, cards[node.left], cards[node.right], card
                )
            node_costs[node] = cost
            total += cost

        latency = total * self.config.ms_per_cost_unit
        if self.config.noise_sigma > 0:
            digest = hashlib.sha256(
                f"{plan.signature()}|{self.config.noise_seed}".encode()
            ).digest()
            rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
            latency *= float(
                np.exp(rng.normal(0.0, self.config.noise_sigma))
            )
        self.queries_executed += 1
        self.total_latency_ms += latency
        return ExecutionResult(
            plan=plan,
            latency_ms=latency,
            cardinality=node_cards[plan.root],
            total_cost=total,
            node_cards=node_cards,
            node_costs=node_costs,
        )

    def latency(self, plan: Plan) -> float:
        """Latency-only convenience wrapper."""
        return self.execute(plan).latency_ms
