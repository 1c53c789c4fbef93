"""Literal interpreter for physical plan trees.

The execution simulator never actually *runs* a plan -- it derives every
node's cardinality from the node's sub-query via the exact executor, so a
plan that (say) lost a predicate during enumeration would still be credited
with the right answer.  :class:`PlanInterpreter` closes that gap: it
evaluates the plan tree exactly as written -- leaf scans apply the scan
node's own pushed-down predicates, join nodes hash-join their children on
the join node's own conditions -- and returns the row count the plan would
really produce.  Differential checking this against the exact executor is
what catches plans that are structurally wrong rather than merely slow.

Joins and scans run on the shared kernels in :mod:`repro.engine.kernels`:
scan predicates are compiled to boolean-mask evaluators once per node, and
build sides that are plain filtered row sets reuse the per-column sort from
the :class:`~repro.engine.kernels.KeyIndexCache` instead of re-sorting.
"""

from __future__ import annotations

import numpy as np

from repro.engine.kernels import (
    GroupIndex,
    KeyIndexCache,
    compile_predicates,
    expand_matches,
    is_strictly_increasing,
    match_counts,
)
from repro.engine.plans import JoinNode, Plan, PlanNode, ScanNode
from repro.storage.catalog import Database

__all__ = ["PlanResultTooLarge", "PlanInterpreter"]


class PlanResultTooLarge(RuntimeError):
    """Raised when a plan's intermediate exceeds the interpreter's guard."""


class PlanInterpreter:
    """Bottom-up materializing evaluator for :class:`~repro.engine.plans.Plan`.

    Intermediates are dicts ``table -> row-index array`` with all arrays
    aligned (position ``i`` across the arrays is one joined output row).
    ``max_rows`` bounds any intermediate so adversarial plans fail loudly.
    The join-column sorts live in the interpreter's own key-index cache,
    whose entries are keyed by table name, column and ``data_version`` --
    valid for one database only.
    """

    def __init__(self, db: Database, max_rows: int = 2_000_000) -> None:
        self.db = db
        self.max_rows = max_rows
        self.key_index = KeyIndexCache()

    def count(self, plan: Plan) -> int:
        """Row count produced by executing the plan tree as written."""
        result = self._execute(plan.root)
        first = next(iter(result.values()))
        return int(first.shape[0])

    # -- node evaluation --------------------------------------------------------

    def _execute(self, node: PlanNode) -> dict[str, np.ndarray]:
        if isinstance(node, ScanNode):
            return {node.table: self._scan(node)}
        assert isinstance(node, JoinNode)
        left = self._execute(node.left)
        right = self._execute(node.right)
        return self._join(node, left, right)

    def _scan(self, node: ScanNode) -> np.ndarray:
        tbl = self.db.table(node.table)
        evaluate = compile_predicates(node.predicates)
        if evaluate is None:
            return np.arange(tbl.n_rows, dtype=np.int64)
        return np.flatnonzero(evaluate(tbl))

    def _join(
        self,
        node: JoinNode,
        left: dict[str, np.ndarray],
        right: dict[str, np.ndarray],
    ) -> dict[str, np.ndarray]:
        """Hash join on the first condition, filter on the rest."""
        first, *rest = node.conditions
        if first.left.table in left:
            l_ref, r_ref = first.left, first.right
        else:
            l_ref, r_ref = first.right, first.left
        # Build on the right side, probe with the left.  A leaf scan's row
        # set is sorted/unique and can reuse the cached full-column sort;
        # a join intermediate (gathered, duplicated rows) is indexed fresh.
        r_rows = right[r_ref.table]
        r_table = self.db.table(r_ref.table)
        if is_strictly_increasing(r_rows):
            index = self.key_index.restricted(r_table, r_ref.column, r_rows)
        else:
            index = GroupIndex.from_keys(r_table.values(r_ref.column)[r_rows])
        l_keys = self.db.table(l_ref.table).values(l_ref.column)[
            left[l_ref.table]
        ]
        pos, counts = match_counts(index, l_keys)
        total = int(counts.sum())
        if total > self.max_rows:
            raise PlanResultTooLarge(
                f"join intermediate of {total} rows exceeds {self.max_rows}"
            )
        left_take = np.repeat(np.arange(l_keys.shape[0]), counts)
        right_take = expand_matches(index, pos, counts)
        out = {t: idx[left_take] for t, idx in left.items()}
        out.update({t: idx[right_take] for t, idx in right.items()})
        for cond in rest:
            lv = self.db.table(cond.left.table).values(cond.left.column)[
                out[cond.left.table]
            ]
            rv = self.db.table(cond.right.table).values(cond.right.column)[
                out[cond.right.table]
            ]
            keep = lv == rv
            out = {t: idx[keep] for t, idx in out.items()}
        return out
