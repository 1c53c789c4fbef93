"""Operator cost formulas shared by the simulator and the optimizer.

One set of PostgreSQL-flavoured formulas, evaluated twice:

- by :class:`repro.engine.simulator.ExecutionSimulator` on **true**
  cardinalities -> the plan's actual latency;
- by :class:`repro.optimizer.cost.TraditionalCostModel` on **estimated**
  cardinalities -> the optimizer's belief.

Keeping the formulas identical means the *only* source of plan-choice error
in this system is cardinality misestimation (plus whatever a learned cost
model gets wrong), which mirrors the diagnosis of Leis et al. [27] that the
tutorial builds on.

Constants follow PostgreSQL's planner defaults where they exist, with a
clustering factor making index scans competitive below ~5% selectivity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["CostConstants", "OperatorCosts", "DEFAULT_COSTS"]


@dataclass(frozen=True)
class CostConstants:
    """Tunable cost-model constants (PostgreSQL-style)."""

    #: the unit every other constant is priced in: no constructor argument,
    #: but an instance field (set in ``__post_init__``), which a model's
    #: fingerprint walks
    seq_page_cost: float = field(default=1.0, init=False)
    random_page_cost: float = 4.0
    cpu_tuple_cost: float = 0.01
    cpu_operator_cost: float = 0.0025
    cpu_index_tuple_cost: float = 0.005
    rows_per_page: int = 100
    #: fraction of random page cost actually paid per index fetch
    #: (models clustering + buffer cache)
    index_cluster_factor: float = 0.1
    #: per-probe B-tree descent cost multiplier
    index_probe_factor: float = 0.125

    def __post_init__(self) -> None:
        object.__setattr__(self, "seq_page_cost", 1.0)


class OperatorCosts:
    """Cost formulas over (possibly estimated) cardinalities."""

    def __init__(self, constants: CostConstants | None = None) -> None:
        self.c = constants if constants is not None else CostConstants()

    def seq_scan(self, base_rows: float, n_predicates: int) -> float:
        c = self.c
        pages = math.ceil(max(base_rows, 1) / c.rows_per_page)
        return (
            pages * c.seq_page_cost
            + base_rows * c.cpu_tuple_cost
            + base_rows * n_predicates * c.cpu_operator_cost
        )

    def index_scan(
        self, base_rows: float, fetched_rows: float, n_predicates: int
    ) -> float:
        """Index scan driven by one predicate fetching ``fetched_rows``,
        with the remaining predicates applied as a filter."""
        c = self.c
        descent = math.log2(base_rows + 2) * c.cpu_operator_cost * 50
        per_fetch = (
            c.random_page_cost * c.index_cluster_factor + c.cpu_index_tuple_cost
        )
        residual = max(n_predicates - 1, 0)
        return (
            descent
            + fetched_rows * per_fetch
            + fetched_rows * residual * c.cpu_operator_cost
        )

    def hash_join(self, left_rows: float, right_rows: float, out_rows: float) -> float:
        """Build on the right input, probe with the left."""
        c = self.c
        build = right_rows * c.cpu_operator_cost * 3
        probe = left_rows * c.cpu_operator_cost * 2
        return 10 * c.cpu_operator_cost + build + probe + out_rows * c.cpu_tuple_cost

    def nested_loop_indexed(
        self,
        left_rows: float,
        inner_base_rows: float,
        out_rows: float,
    ) -> float:
        """Index nested-loop: inner side is a base table probed by index."""
        c = self.c
        probe = math.log2(inner_base_rows + 2) * c.cpu_operator_cost * 50
        probe *= self.c.index_probe_factor * 8  # descent is cheaper when hot
        fetch = c.random_page_cost * c.index_cluster_factor + c.cpu_index_tuple_cost
        return left_rows * probe + out_rows * (fetch + c.cpu_tuple_cost)

    def nested_loop_naive(
        self, left_rows: float, right_rows: float, out_rows: float
    ) -> float:
        """Materialized nested-loop: quadratic inner rescans."""
        c = self.c
        return (
            left_rows * max(right_rows, 1) * c.cpu_operator_cost * 0.1
            + out_rows * c.cpu_tuple_cost
        )

    def merge_join(self, left_rows: float, right_rows: float, out_rows: float) -> float:
        c = self.c
        sort = (
            left_rows * math.log2(left_rows + 2)
            + right_rows * math.log2(right_rows + 2)
        ) * c.cpu_operator_cost * 2
        merge = (left_rows + right_rows) * c.cpu_tuple_cost * 0.5
        return sort + merge + out_rows * c.cpu_tuple_cost


DEFAULT_COSTS = OperatorCosts()

#: The execution simulator's "true hardware" constants.  They deliberately
#: diverge from the planner defaults above (SSD-era cheap random reads,
#: pricier hashing/CPU, hotter index probes), reproducing the systematic
#: cost-model miscalibration that Bao [37] exploits: the native optimizer's
#: beliefs are self-consistent but wrong about the machine, so hint-steered
#: or latency-trained optimizers have real headroom (~1.4x median, ~2.3x
#: p90 on the bundled workloads).
TRUE_HARDWARE_CONSTANTS = CostConstants(
    random_page_cost=0.8,
    cpu_tuple_cost=0.015,
    cpu_operator_cost=0.006,
    cpu_index_tuple_cost=0.003,
    rows_per_page=60,
    index_cluster_factor=0.03,
    index_probe_factor=0.04,
)
