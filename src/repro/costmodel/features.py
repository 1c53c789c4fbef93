"""Plan featurization shared by learned cost models and risk models.

Three representations:

- **tree arrays** (:func:`plan_to_tree_arrays`): per-node feature vectors
  plus left/right child indices, consumed by tree-convolution and
  tree-recurrent models, gathered from a :class:`NodeTable` that
  featurizes each distinct plan node once (one decision's candidates share
  one table, and its :meth:`~NodeTable.batch` is their inference batch);
  :func:`prefix_to_tree_arrays` is the same layout for a *partial*
  left-deep plan (the state a value network scores during plan search);
- **flat vectors** (:meth:`PlanFeaturizer.flat`): operator counts +
  cardinality aggregates for linear/GBDT models;
- **transferable vectors** (:meth:`PlanFeaturizer.transferable_node`):
  per-node features that avoid table identity entirely (zero-shot cost
  models [16] train on one database and predict on another).

Node features use the *optimizer's estimated* cardinalities (what a
deployed model would see at plan time), read through a
:class:`repro.optimizer.cost.PlanCoster` -- sanitized centrally, and
answered from the planner's cardinality cache when the coster is the
optimizer's own.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.interfaces import CardinalityEstimator
from repro.engine.plans import JoinMethod, JoinNode, Plan, PlanNode, ScanMethod, ScanNode
from repro.ml.treeconv import PlanTreeBatch
from repro.optimizer.cost import PlanCoster
from repro.optimizer.traditional import TraditionalCardinalityEstimator
from repro.sql.query import Query
from repro.storage.catalog import Database

__all__ = ["NodeTable", "PlanFeaturizer", "plan_to_tree_arrays", "prefix_to_tree_arrays"]

_OPS = [
    ("seq", ScanMethod.SEQ),
    ("index", ScanMethod.INDEX),
    ("hash", JoinMethod.HASH),
    ("nlj", JoinMethod.NESTED_LOOP),
    ("merge", JoinMethod.MERGE),
]
_OP_COLUMN = {method: i for i, (_, method) in enumerate(_OPS)}


class PlanFeaturizer:
    """Featurizes plans against one database + estimator.

    Pass ``coster=optimizer.coster`` to featurize with the cardinalities
    the planner already estimated (and cached) while enumerating; the bare
    ``(db, estimator)`` form wraps the estimator in an uncached coster.
    """

    def __init__(
        self,
        db: Database,
        estimator: CardinalityEstimator | None = None,
        *,
        coster: PlanCoster | None = None,
    ) -> None:
        if coster is not None and estimator is not None:
            raise ValueError("pass an estimator or a coster, not both")
        if coster is None:
            coster = PlanCoster(
                db,
                estimator
                if estimator is not None
                else TraditionalCardinalityEstimator(db),
            )
        self.db = db
        self.coster = coster
        self.tables = list(db.table_names)
        self._table_pos = {t: i for i, t in enumerate(self.tables)}
        self._log_total = math.log1p(max(db.total_rows(), 1))

    # -- per-node -----------------------------------------------------------------

    @property
    def node_dim(self) -> int:
        return len(_OPS) + len(self.tables) + 3

    def _op_onehot(self, node: PlanNode) -> np.ndarray:
        onehot = np.zeros(len(_OPS))
        onehot[_OP_COLUMN[node.method]] = 1.0  # type: ignore[attr-defined]
        return onehot

    def _card(self, plan: Plan, node: PlanNode) -> float:
        """Estimated output cardinality of ``node``: finite and >= 0."""
        return self.coster.estimate_cardinality(plan.node_subquery(node))

    def node_features(self, plan: Plan, node: PlanNode) -> np.ndarray:
        """One node's feature row: the scalar reference of :meth:`node_rows`."""
        est_card = self._card(plan, node)
        table_onehot = np.zeros(len(self.tables))
        n_preds = 0.0
        if isinstance(node, ScanNode):
            table_onehot[self._table_pos[node.table]] = 1.0
            n_preds = len(node.predicates) / 4.0
        extra = np.array(
            [
                math.log1p(est_card) / self._log_total,
                len(node.tables) / max(len(self.tables), 1),
                n_preds,
            ]
        )
        return np.concatenate([self._op_onehot(node), table_onehot, extra])

    def node_rows(self, plan: Plan, nodes: Sequence[PlanNode]) -> np.ndarray:
        """:meth:`node_features` of each of ``nodes`` (of ``plan``), a
        float64 row each, filled at once.  The cardinalities are read in
        ``nodes`` order, one lookup a node, as the per-node path reads them."""
        n_ops, n_tables, dim = len(_OPS), len(self.tables), self.node_dim
        subquery = plan.query.subquery
        cards = self.coster.estimate_cardinalities([subquery(n.tables) for n in nodes])
        hot, extra = [], []  # flat offsets of the one-hot 1s; the last three columns
        for at, node, est_card in zip(range(0, len(nodes) * dim, dim), nodes, cards):
            hot.append(at + _OP_COLUMN[node.method])  # type: ignore[attr-defined]
            n_preds = 0.0
            if isinstance(node, ScanNode):
                hot.append(at + n_ops + self._table_pos[node.table])
                n_preds = len(node.predicates) / 4.0
            extra.append(
                (
                    math.log1p(est_card) / self._log_total,
                    len(node.tables) / max(n_tables, 1),
                    n_preds,
                )
            )
        rows = np.zeros((len(nodes), dim))
        rows.ravel()[hot] = 1.0
        rows[:, n_ops + n_tables :] = extra
        return rows

    def transferable_node(self, plan: Plan, node: PlanNode) -> np.ndarray:
        """Database-agnostic node features (zero-shot style [16])."""
        est_card = self._card(plan, node)
        if isinstance(node, ScanNode):
            base = self.db.table(node.table).n_rows
            in_card = float(base)
            n_preds = len(node.predicates) / 4.0
        else:
            assert isinstance(node, JoinNode)
            in_card = self._card(plan, node.left) + self._card(plan, node.right)
            n_preds = 0.0
        sel = est_card / max(in_card, 1.0)
        extra = np.array(
            [
                math.log1p(est_card) / 20.0,
                math.log1p(in_card) / 20.0,
                min(sel, 2.0),
                n_preds,
            ]
        )
        return np.concatenate([self._op_onehot(node), extra])

    # -- flat ---------------------------------------------------------------------

    def flat(self, plan: Plan) -> np.ndarray:
        counts = np.zeros(len(_OPS))
        log_cards = []
        for node in plan.walk():
            counts += self._op_onehot(node)
            log_cards.append(math.log1p(self._card(plan, node)))
        log_cards_arr = np.array(log_cards)
        depth = _tree_depth(plan.root)
        extra = np.array(
            [
                log_cards_arr.sum() / 20.0,
                log_cards_arr.max() / 20.0,
                len(plan.query.tables) / max(len(self.tables), 1),
                depth / 8.0,
                len(plan.query.predicates) / 8.0,
            ]
        )
        return np.concatenate([counts, extra])

    def flat_batch(self, plans: list[Plan]) -> np.ndarray:
        return np.stack([self.flat(p) for p in plans])


def _tree_depth(node: PlanNode) -> int:
    if isinstance(node, ScanNode):
        return 1
    assert isinstance(node, JoinNode)
    return 1 + max(_tree_depth(node.left), _tree_depth(node.right))


class NodeTable:
    """The nodes of one decision's plans, featurized once: a float64 row
    per distinct ``(query, node)``, in the order the plans first reach
    them (pre-order, plan after plan), so the coster sees the lookups the
    per-node path made.

    The table is laid out and filled on its first read -- the first
    :func:`plan_to_tree_arrays` of one of its plans, which so carries the
    decision's featurization -- with one :meth:`PlanFeaturizer.node_rows`
    over every node not seen before.  Each plan's tree and the decision's
    inference batch (:meth:`batch`) are gathers from it.  A node the arm
    sweep shares is featurized once.  A table must not outlive its
    decision, whose estimator state its rows reflect.
    """

    def __init__(self, featurizer: PlanFeaturizer, plans: Sequence[Plan]) -> None:
        self.featurizer = featurizer
        self.plans = list(plans)
        self._at = {id(plan): i for i, plan in enumerate(self.plans)}
        self._layout: tuple | None = None

    def layout(self) -> tuple:
        """``(features, rows, left, right, starts, sizes)``: the table, then
        every plan's nodes in pre-order, plan after plan -- each node's
        table row and its tree-local child indices (``-1`` = none) -- and
        each plan's first node and node count."""
        if self._layout is not None:
            return self._layout
        rows: list[int] = []
        left: list[int] = []
        right: list[int] = []
        sizes: list[int] = []
        seen: dict[Query, dict[PlanNode, int]] = {}  # query -> node -> row
        runs: list[tuple[Plan, list[PlanNode]]] = []  # unseen nodes, a run per query
        n_rows, run_of = 0, None
        for plan in self.plans:
            row_of = seen.setdefault(plan.query, {})
            if row_of is not run_of:
                runs.append((plan, []))
                run_of = row_of
            missed = runs[-1][1]
            first = len(rows)
            # (node, its parent's index, the parent's child list it fills)
            stack: list[tuple[PlanNode, int, list[int]]] = [(plan.root, -1, left)]
            while stack:
                node, parent, side = stack.pop()
                index = len(rows) - first
                if parent >= 0:
                    side[first + parent] = index
                row = row_of.get(node)
                if row is None:
                    row = row_of[node] = n_rows
                    n_rows += 1
                    missed.append(node)
                rows.append(row)
                left.append(-1)
                right.append(-1)
                if isinstance(node, JoinNode):
                    stack.append((node.right, index, right))
                    stack.append((node.left, index, left))
            sizes.append(len(rows) - first)
        blocks = [self.featurizer.node_rows(plan, nodes) for plan, nodes in runs if nodes]
        features = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        sizes_arr = np.array(sizes)
        self._layout = (
            features,
            *np.array((rows, left, right)),
            np.cumsum(sizes_arr) - sizes_arr,
            sizes_arr,
        )
        return self._layout

    def tree(self, plan: Plan) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(features, left, right)`` of ``plan``, one of the table's plans."""
        features, rows, left, right, starts, sizes = self.layout()
        i = self._at[id(plan)]
        cut = slice(starts[i], starts[i] + sizes[i])
        # Copies: an observed tree outlives the decision's layout arrays.
        return features[rows[cut]], left[cut].copy(), right[cut].copy()

    def batch(self) -> PlanTreeBatch:
        """The inference batch of the table's plans, in order: one gather
        from the table, no tree re-stacked or re-validated."""
        features, rows, left, right, _, sizes = self.layout()
        return PlanTreeBatch.gather(features, rows, left, right, sizes)


def plan_to_tree_arrays(
    plan: Plan,
    featurizer: PlanFeaturizer,
    *,
    table: NodeTable | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten a plan to ``(features, left, right)`` arrays (pre-order).

    Child index ``-1`` marks leaves, matching
    :class:`repro.ml.treeconv.PlanTreeBatch` expectations.

    The tree is gathered from ``table``, a :class:`NodeTable` of
    ``featurizer`` that holds ``plan`` (one decision's candidates share
    one, so a node they share is featurized once); without one, from a
    table of this plan alone.
    """
    if table is None:
        table = NodeTable(featurizer, [plan])
    return table.tree(plan)


def prefix_to_tree_arrays(
    query: Query, prefix: list[str], featurizer: PlanFeaturizer
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tree arrays of the partial left-deep plan joining ``prefix`` in order.

    The state encoding of the value-guided searches (Neo / Balsa / LOGER,
    RTOS): physical operators are not chosen yet, so scans fill the ``seq``
    slot and joins the ``hash`` slot, and cardinalities are scaled by a
    fixed ``/ 20`` instead of the database's log-total.  Pre-order of a
    left-deep tree is its joins top-down, then its scans left to right, so
    no plan nodes are built.  Cardinalities come through
    ``featurizer.coster``: sanitized, and cached when the planner's own.
    """
    m, n_tables = len(prefix), len(featurizer.tables)
    base = len(_OPS) + n_tables
    subsets = [frozenset(prefix[: m - i]) for i in range(m - 1)]  # joins, top-down
    subsets += [frozenset((table,)) for table in prefix]  # then the scans
    feats = np.zeros((2 * m - 1, featurizer.node_dim))
    for row, tables in zip(feats, subsets):
        card = featurizer.coster.subquery_cardinality(query, tables)
        row[base] = math.log1p(card) / 20.0
        row[base + 1] = len(tables) / max(n_tables, 1)
    feats[: m - 1, 2] = 1.0
    feats[m - 1 :, 0] = 1.0
    for row, table in zip(feats[m - 1 :], prefix):
        row[len(_OPS) + featurizer._table_pos[table]] = 1.0
        row[base + 2] = len(query.predicates_on(table)) / 4.0
    # Join i's left child is the next join down (the first scan, for the
    # last join); its right child is the scan of the table it adds.
    left = np.full(2 * m - 1, -1)
    right = np.full(2 * m - 1, -1)
    left[: m - 1] = np.arange(1, m)
    right[: m - 1] = np.arange(2 * m - 2, m - 1, -1)
    return feats, left, right
