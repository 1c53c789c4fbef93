"""Join-composition helpers shared by the per-table estimators.

Several data-driven estimators (QuickSel, KDE, Naru, BayesNet, SPN, FSPN,
GLUE) model *single tables* and need a rule to compose join estimates.  The
standard composition (used by GLUE [82] and the per-table deployments in
the STATS benchmark [12]) is **join uniformity**:

    card(Q) ~= |J(tables, joins)|  *  prod_t  sel_t(preds_t)

where ``|J|`` is the size of the *unfiltered* join and ``sel_t`` the
per-table predicate selectivity from the table model.  ``|J|`` is exact and
cheap: it only depends on join-key frequency vectors, which
:class:`UnfilteredJoinSizes` computes once per join template via the exact
executor's message-passing counter and memoizes.  The remaining (and well
documented) error source is the correlation between predicates and join
keys -- exactly the error mode the STATS benchmark shows for this family.
"""

from __future__ import annotations

from repro.engine.executor import CardinalityExecutor
from repro.sql.query import Join, Query
from repro.storage.catalog import Database

__all__ = ["UnfilteredJoinSizes", "spanning_tree", "uniform_join_estimate"]


def spanning_tree(query: Query) -> tuple[list[tuple[str, str, str, str]], list[Join]]:
    """``(tree, extras)`` of ``query``'s join graph walked from its first
    table: the tree edges as ``(child, child_col, parent, parent_col)`` in
    root-outward discovery order, and the cycle-closing joins.  A join the
    walk never reaches is in neither (a disconnected graph)."""
    visited = {query.tables[0]}
    tree: list[tuple[str, str, str, str]] = []
    extras: list[Join] = []
    remaining = list(query.joins)
    progress = True
    while remaining and progress:
        progress = False
        still = []
        for j in remaining:
            lt, rt = j.left.table, j.right.table
            if lt in visited and rt in visited:
                extras.append(j)
                progress = True
            elif lt in visited:
                visited.add(rt)
                tree.append((rt, j.right.column, lt, j.left.column))
                progress = True
            elif rt in visited:
                visited.add(lt)
                tree.append((lt, j.left.column, rt, j.right.column))
                progress = True
            else:
                still.append(j)
        remaining = still
    return tree, extras


class UnfilteredJoinSizes:
    """Memoized exact sizes of unfiltered join templates."""

    def __init__(self, db: Database) -> None:
        self.db = db
        self._executor = CardinalityExecutor(db)
        self._cache: dict[tuple, int] = {}

    def size(self, query: Query) -> int:
        """Exact |join of query's tables| ignoring all predicates."""
        key = (query.tables, tuple(str(j) for j in query.joins))
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        unfiltered = Query(query.tables, query.joins, ())
        value = self._executor.cardinality(unfiltered)
        self._cache[key] = value
        return value

    def invalidate(self) -> None:
        """Drop memoized sizes (call after data changes)."""
        self._cache.clear()
        self._executor.clear_cache()


def uniform_join_estimate(
    query: Query,
    join_sizes: UnfilteredJoinSizes,
    table_selectivity,
) -> float:
    """Join-uniformity composition.

    ``table_selectivity(table) -> float`` supplies each table's predicate
    selectivity in ``[0, 1]`` from whatever per-table model the caller owns.
    """
    card = float(join_sizes.size(query))
    for t in query.tables:
        sel = float(table_selectivity(t))
        card *= min(max(sel, 0.0), 1.0)
    return card
