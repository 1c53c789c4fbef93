"""Physical plan trees: scans and binary joins.

Plans are immutable trees of :class:`ScanNode` and :class:`JoinNode`.  Every
node knows which base tables it covers, which makes it trivial to derive the
sub-query whose cardinality the node produces -- the handle through which
cardinality estimators, cost models and the execution simulator all consume
plans.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

from repro.sql.query import Join, Predicate, Query, hash_once, state_without_hash, str_once

__all__ = ["ScanMethod", "JoinMethod", "PlanNode", "ScanNode", "JoinNode", "Plan"]


class ScanMethod(enum.Enum):
    SEQ = "SeqScan"
    INDEX = "IndexScan"


class JoinMethod(enum.Enum):
    HASH = "HashJoin"
    NESTED_LOOP = "NestedLoop"
    MERGE = "MergeJoin"


@dataclass(frozen=True)
class PlanNode:
    """Base class for plan nodes; concrete nodes define ``_covered``.

    Nodes are immutable and key every per-node dict, so the table set, the
    hash and the signature are memoized on the instance, outside the
    dataclass fields.
    """

    @property
    def tables(self) -> frozenset[str]:
        tables = self.__dict__.get("_tables")
        if tables is None:
            tables = self._covered()
            object.__setattr__(self, "_tables", tables)
        return tables

    def _covered(self) -> frozenset[str]:
        raise NotImplementedError

    __getstate__ = state_without_hash

    def walk(self) -> Iterator["PlanNode"]:
        """Pre-order traversal of the subtree rooted here."""
        yield self

    @property
    def n_nodes(self) -> int:
        return sum(1 for _ in self.walk())

    def signature(self) -> str:
        """Canonical string identifying operator tree + methods + tables."""
        raise NotImplementedError


@dataclass(frozen=True)
class ScanNode(PlanNode):
    """Leaf: scan of one base table with the query's pushed-down predicates."""

    table: str
    method: ScanMethod = ScanMethod.SEQ
    predicates: tuple[Predicate, ...] = ()

    def _covered(self) -> frozenset[str]:
        return frozenset((self.table,))

    __hash__ = hash_once

    @str_once
    def signature(self) -> str:
        return f"{self.method.value}({self.table})"

    __str__ = signature


@dataclass(frozen=True)
class JoinNode(PlanNode):
    """Binary join of two sub-plans.

    ``conditions`` holds the equi-join edges connecting the two sides (there
    is at least one; cycle-closing edges may add more).
    """

    left: PlanNode
    right: PlanNode
    method: JoinMethod = JoinMethod.HASH
    conditions: tuple[Join, ...] = ()

    def __post_init__(self) -> None:
        overlap = self.left.tables & self.right.tables
        if overlap:
            raise ValueError(f"join children overlap on tables {sorted(overlap)}")
        if not self.conditions:
            raise ValueError("join node needs at least one condition (no cross joins)")
        for cond in self.conditions:
            lt, rt = cond.left.table, cond.right.table
            spans = (lt in self.left.tables and rt in self.right.tables) or (
                rt in self.left.tables and lt in self.right.tables
            )
            if not spans:
                raise ValueError(f"condition {cond} does not span the two join sides")

    def _covered(self) -> frozenset[str]:
        return self.left.tables | self.right.tables

    __hash__ = hash_once

    def walk(self) -> Iterator[PlanNode]:
        yield self
        yield from self.left.walk()
        yield from self.right.walk()

    @str_once
    def signature(self) -> str:
        return (
            f"{self.method.value}({self.left.signature()},{self.right.signature()})"
        )

    __str__ = signature


@dataclass(frozen=True)
class Plan:
    """A complete physical plan for a query."""

    query: Query
    root: PlanNode

    def __post_init__(self) -> None:
        if self.root.tables != frozenset(self.query.tables):
            raise ValueError(
                f"plan covers {sorted(self.root.tables)} but query needs "
                f"{sorted(self.query.tables)}"
            )

    def walk(self) -> Iterator[PlanNode]:
        return self.root.walk()

    def signature(self) -> str:
        return self.root.signature()

    def node_subquery(self, node: PlanNode) -> Query:
        """The sub-query whose result the given node produces."""
        return self.query.subquery(node.tables)

    def join_order(self) -> list[str]:
        """Base tables in left-to-right leaf order."""
        return [scan.table for scan in self.scan_nodes()]

    def scan_nodes(self) -> list[ScanNode]:
        return [n for n in self.walk() if isinstance(n, ScanNode)]

    def join_nodes(self) -> list[JoinNode]:
        return [n for n in self.walk() if isinstance(n, JoinNode)]

    def pretty(self) -> str:
        """Multi-line indented rendering for debugging and examples."""
        lines: list[str] = []

        def visit(node: PlanNode, depth: int) -> None:
            if isinstance(node, ScanNode):
                preds = (
                    " [" + " AND ".join(str(p) for p in node.predicates) + "]"
                    if node.predicates
                    else ""
                )
                lines.append("  " * depth + f"{node.method.value} {node.table}{preds}")
            else:
                assert isinstance(node, JoinNode)
                conds = " AND ".join(str(c) for c in node.conditions)
                lines.append("  " * depth + f"{node.method.value} on {conds}")
                visit(node.left, depth + 1)
                visit(node.right, depth + 1)

        visit(self.root, 0)
        return "\n".join(lines)
