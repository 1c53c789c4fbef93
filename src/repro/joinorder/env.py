"""The join-order MDP: left-deep order construction over a query.

State: the ordered prefix of tables already joined.  Action: append any
table connected (in the query's join graph) to the current prefix -- or any
table when the prefix is empty.  Terminal: all tables joined.  The reward
is supplied by the caller (estimated cost for offline methods, simulated
latency for online ones).

:func:`plan_from_order` turns a completed order into a physical plan by
choosing the cheapest scan / join method per step under the native cost
model -- the same operator-selection convention DQ/ReJoin/RTOS use.
"""

from __future__ import annotations

from repro.engine.plans import Plan
from repro.optimizer.cost import PlanCoster
from repro.optimizer.hints import HintSet
from repro.optimizer.planner import _best_join, _best_scan, _join_conditions_between
from repro.sql.query import Query

__all__ = ["JoinOrderEnv", "plan_from_order"]


def plan_from_order(
    query: Query,
    order: list[str],
    coster: PlanCoster,
) -> Plan:
    """Left-deep plan for the given table order, cheapest operators per step
    under the default hints."""
    hints = HintSet.default()
    if sorted(order) != sorted(query.tables):
        raise ValueError(f"order {order} does not cover query tables {query.tables}")
    card_of: dict[frozenset[str], float] = {}

    def card(tables: frozenset[str]) -> float:
        if tables not in card_of:
            card_of[tables] = coster.subquery_cardinality(query, tables)
        return card_of[tables]

    current, cost = _best_scan(query, order[0], coster, hints)
    card(current.tables)
    for table in order[1:]:
        right, right_cost = _best_scan(query, table, coster, hints)
        conditions = _join_conditions_between(
            query, current.tables, right.tables
        )
        if not conditions:
            raise ValueError(
                f"table {table!r} not connected to prefix {sorted(current.tables)}"
            )
        card(right.tables)
        card(current.tables | right.tables)
        best = _best_join(
            (current, cost),
            (right, right_cost),
            conditions,
            coster,
            hints,
            card_of,
        )
        assert best is not None
        current, cost = best
    return Plan(query, current)


class JoinOrderEnv:
    """Left-deep join-order construction environment for one query."""

    def __init__(self, query: Query) -> None:
        self.query = query
        self.tables = list(query.tables)
        self._adj: dict[str, set[str]] = {t: set() for t in self.tables}
        for j in query.joins:
            self._adj[j.left.table].add(j.right.table)
            self._adj[j.right.table].add(j.left.table)
        self.reset()

    def reset(self) -> list[str]:
        self.prefix: list[str] = []
        return self.prefix

    @property
    def done(self) -> bool:
        return len(self.prefix) == len(self.tables)

    def valid_actions(self) -> list[str]:
        """Tables that can legally extend the current prefix."""
        if not self.prefix:
            return list(self.tables)
        joined = set(self.prefix)
        return sorted(
            t
            for t in self.tables
            if t not in joined and self._adj[t] & joined
        )

    def step(self, table: str) -> list[str]:
        if table in self.prefix:
            raise ValueError(f"table {table!r} already joined")
        if table not in self.valid_actions():
            raise ValueError(
                f"table {table!r} is not a valid extension of {self.prefix}"
            )
        self.prefix.append(table)
        return self.prefix
