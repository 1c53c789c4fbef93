"""The data-drift generators of the dynamic experiments."""

from __future__ import annotations

import numpy as np

from repro.sql.query import ColumnRef, Join, Op, Predicate, Query
from repro.storage.catalog import Database

__all__ = [
    "adversarial_hot_key_drift",
    "apply_drift",
    "hot_key_probe_queries",
    "hot_key_targets",
]


def apply_drift(
    db: Database,
    *,
    fraction: float = 0.2,
    seed: int = 0,
) -> list[str]:
    """Append distribution-shifted rows to every table (dynamic-data tests).

    New rows take non-key column values from the top quartile of the
    existing distribution (so the data's shape genuinely
    changes), foreign keys resample uniformly over existing parents (which
    flattens the fan-out skew), and primary keys continue the sequence.
    Returns the list of modified tables.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    rng = np.random.default_rng(seed)
    # Which (table, column) pairs are FK sides of join edges.
    key_cols: dict[str, set[str]] = {t: set() for t in db.table_names}
    for e in db.joins:
        key_cols[e.left_table].add(e.left_column)
        key_cols[e.right_table].add(e.right_column)

    changed: list[str] = []
    # Snapshot parent keys before any append so FKs stay valid.
    parents: dict[tuple[str, str], np.ndarray] = {}
    for t in db.table_names:
        for c in key_cols[t]:
            parents[(t, c)] = db.table(t).values(c).copy()

    for tname in db.table_names:
        table = db.table(tname)
        n_new = int(table.n_rows * fraction)
        if n_new == 0:
            continue
        rows: dict[str, np.ndarray] = {}
        for cname in table.column_names:
            col = table.column(cname)
            if col.is_key:
                start = int(col.values.max()) + 1
                rows[cname] = np.arange(start, start + n_new, dtype=col.values.dtype)
            elif cname in key_cols[tname] and not col.is_key:
                # FK: resample uniformly from the parent side of some edge.
                edge = next(
                    e
                    for e in db.joins
                    if (e.left_table, e.left_column) == (tname, cname)
                    or (e.right_table, e.right_column) == (tname, cname)
                )
                other_t = edge.other(tname)
                other_c = edge.column_of(other_t)
                pool = parents.get((other_t, other_c))
                if pool is None:
                    pool = db.table(other_t).values(other_c)
                rows[cname] = rng.choice(pool, size=n_new).astype(col.values.dtype)
            else:
                hi_vals = col.values[col.values >= np.quantile(col.values, 0.75)]
                if hi_vals.size == 0:
                    hi_vals = col.values
                rows[cname] = rng.choice(hi_vals, size=n_new).astype(col.values.dtype)
        table.append_rows(rows)
        changed.append(tname)
    return changed


def _parent_children(
    db: Database,
) -> dict[tuple[str, str], list[tuple[str, str]]]:
    """Join graph as FK references: (parent_table, key_column) ->
    [(child_table, fk_column), ...], sorted for determinism."""
    children: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for e in db.joins:
        sides = (
            ((e.left_table, e.left_column), (e.right_table, e.right_column)),
            ((e.right_table, e.right_column), (e.left_table, e.left_column)),
        )
        for (pt, pc), (ct, cc) in sides:
            if db.table(pt).column(pc).is_key and not db.table(ct).column(cc).is_key:
                children.setdefault((pt, pc), []).append((ct, cc))
    return {k: sorted(v) for k, v in sorted(children.items())}


def hot_key_targets(db: Database) -> dict[tuple[str, str], float]:
    """Per parent key column, the *least-referenced* existing key value.

    These are the values :func:`adversarial_hot_key_drift` turns hot: an
    existing parent key that pre-drift statistics rightly consider rare,
    so any estimator built before the drift keeps believing predicates
    and joins through it are near-empty.  A pure function of the current
    data -- callers can compute targets up front, build probe queries
    against them, and hand the same targets to the drift so the two
    always agree.
    """
    targets: dict[tuple[str, str], float] = {}
    for (pt, pc), kids in _parent_children(db).items():
        pool = db.table(pt).values(pc)
        refs = np.concatenate([db.table(ct).values(cc) for ct, cc in kids])
        uniq, counts = np.unique(refs, return_counts=True)
        ref_count = dict(zip(uniq.tolist(), counts.tolist()))
        targets[(pt, pc)] = float(
            min(pool.tolist(), key=lambda v: (ref_count.get(v, 0), v))
        )
    return targets


def adversarial_hot_key_drift(
    db: Database,
    *,
    fraction: float = 0.5,
    seed: int = 0,
    targets: dict[tuple[str, str], float],
) -> None:
    """Append rows that pile every child table's foreign keys onto one
    previously-cold parent key (per parent), making it the hottest value.

    Where :func:`apply_drift` *flattens* fan-out skew (FKs resample
    uniformly), this drift concentrates it where pre-drift statistics
    least expect it: all new child rows reference the same formerly
    rare parent key (:func:`hot_key_targets`), and all children of one
    parent pile onto the *same* key -- so true join sizes through it
    explode multiplicatively while any estimator built on stale
    statistics keeps predicting near-zero.  That asymmetry is the worst
    case for an optimistic planner (believed-empty intermediates invite
    nested-loop plans that now take seconds) and exactly the case a
    refreshed pessimistic bound, or a serving-side bound guard fed
    observed counts, exists to survive.  Only tables with at least one
    non-key FK column grow; primary keys continue the sequence and other
    columns resample from the existing distribution.  ``targets`` is the
    mapping :func:`hot_key_targets` computed before the drift, which the
    caller keeps to probe the hot keys.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    rng = np.random.default_rng(seed)
    fk_value: dict[tuple[str, str], float] = {}
    for (pt, pc), kids in _parent_children(db).items():
        for ct, cc in kids:
            if (pt, pc) in targets:
                fk_value[(ct, cc)] = targets[(pt, pc)]

    for tname in db.table_names:
        table = db.table(tname)
        hot_cols = [c for c in table.column_names if (tname, c) in fk_value]
        n_new = int(table.n_rows * fraction)
        if not hot_cols or n_new == 0:
            continue
        rows: dict[str, np.ndarray] = {}
        for cname in table.column_names:
            col = table.column(cname)
            if col.is_key:
                start = int(col.values.max()) + 1
                rows[cname] = np.arange(
                    start, start + n_new, dtype=col.values.dtype
                )
            elif cname in hot_cols:
                rows[cname] = np.full(
                    n_new, fk_value[(tname, cname)], dtype=col.values.dtype
                )
            else:
                rows[cname] = rng.choice(col.values, size=n_new).astype(
                    col.values.dtype
                )
        table.append_rows(rows)


def hot_key_probe_queries(
    db: Database, targets: dict[tuple[str, str], float]
) -> list[Query]:
    """Join queries that cross the hot keys -- the adversarial probes.

    Three escalating shapes per the join graph, each with an equality
    predicate pinning a child FK to its (post-drift hot) target value:

    - child |><| parent -- the estimate is wrong by the full fan-out;
    - sibling |><| parent |><| sibling -- two children of the same parent,
      a many-to-many blow-up through the shared hot key;
    - the bushy trap: two (child, parent) pairs from *different* parents
      linked by a join edge, with both FKs pinned -- believed-tiny on both
      sides, which is what baits an optimistic planner into a naive
      nested loop over two huge intermediates.

    Deterministic order, deduplicated.  Run against pre-drift data these
    are all near-empty and harmless; after :func:`adversarial_hot_key_drift`
    they are the tail of the workload.
    """
    groups = [
        ((pt, pc), kids)
        for (pt, pc), kids in _parent_children(db).items()
        if (pt, pc) in targets
    ]
    edge_of: dict[tuple[str, str, str, str], Join] = {}
    for (pt, pc), kids in groups:
        for ct, cc in kids:
            edge_of[(ct, cc, pt, pc)] = Join(ColumnRef(ct, cc), ColumnRef(pt, pc))

    def probe(ct: str, cc: str, pt: str, pc: str) -> Predicate:
        return Predicate(ColumnRef(ct, cc), Op.EQ, targets[(pt, pc)])

    queries: list[Query] = []
    # child |><| parent
    for (pt, pc), kids in groups:
        for ct, cc in kids:
            queries.append(
                Query(
                    tuple(sorted((ct, pt))),
                    (edge_of[(ct, cc, pt, pc)],),
                    (probe(ct, cc, pt, pc),),
                )
            )
    # sibling |><| parent |><| sibling
    for (pt, pc), kids in groups:
        for i, (ct1, cc1) in enumerate(kids):
            for ct2, cc2 in kids[i + 1 :]:
                if ct1 == ct2:
                    continue
                queries.append(
                    Query(
                        tuple(sorted((ct1, ct2, pt))),
                        (
                            edge_of[(ct1, cc1, pt, pc)],
                            edge_of[(ct2, cc2, pt, pc)],
                        ),
                        (probe(ct1, cc1, pt, pc),),
                    )
                )
    # the bushy trap: two pinned (child, parent) pairs + a linking edge
    for i, ((pt1, pc1), kids1) in enumerate(groups):
        for (pt2, pc2), kids2 in groups[i + 1 :]:
            for ct1, cc1 in kids1:
                for ct2, cc2 in kids2:
                    tables = {ct1, pt1, ct2, pt2}
                    if len(tables) < 4:
                        continue
                    link = next(
                        (
                            Join(
                                ColumnRef(lt, lc), ColumnRef(rt, rc)
                            )
                            for (lt, lc, rt, rc) in sorted(edge_of)
                            if {lt, rt} <= tables
                            and {lt, rt} not in ({ct1, pt1}, {ct2, pt2})
                        ),
                        None,
                    )
                    if link is None:
                        continue
                    queries.append(
                        Query(
                            tuple(sorted(tables)),
                            (
                                edge_of[(ct1, cc1, pt1, pc1)],
                                edge_of[(ct2, cc2, pt2, pc2)],
                                link,
                            ),
                            (
                                probe(ct1, cc1, pt1, pc1),
                                probe(ct2, cc2, pt2, pc2),
                            ),
                        )
                    )
    seen: set[str] = set()
    unique: list[Query] = []
    for q in queries:
        if q.cache_key not in seen:
            seen.add(q.cache_key)
            unique.append(q)
    return unique
