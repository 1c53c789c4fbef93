"""Workload generators: JOB-style multi-join and single-table range queries.

The generator draws connected subgraphs of the database's declared join
graph and attaches data-derived predicates (constants sampled from actual
column values) so that generated queries have a wide, realistic spread of
selectivities -- the standard recipe used by MSCN's and the STATS
benchmark's training workloads.
"""

from __future__ import annotations

import numpy as np

from repro.sql.query import ColumnRef, Join, Op, OrPredicate, Predicate, Query
from repro.storage.catalog import Database

__all__ = ["WorkloadGenerator"]


class WorkloadGenerator:
    """Deterministic random SPJ workload generator over a database.

    Parameters
    ----------
    db:
        The database whose join graph and column values drive generation.
    seed:
        Seed for the internal RNG; identical seeds reproduce workloads.
    """

    #: operators drawn for numeric predicates, with draw weights
    _RANGE_OPS = [Op.EQ, Op.LE, Op.GE, Op.BETWEEN, Op.IN]
    _RANGE_WEIGHTS = [0.25, 0.2, 0.2, 0.25, 0.1]

    def __init__(self, db: Database, seed: int = 0, or_rate: float = 0.0) -> None:
        """``or_rate``: probability that a generated predicate becomes a
        same-column disjunction (mixed-predicate workloads, [42]).  The
        default of 0 keeps historical workloads byte-identical."""
        if not 0.0 <= or_rate <= 1.0:
            raise ValueError("or_rate must be in [0, 1]")
        self.db = db
        self.or_rate = or_rate
        self.rng = np.random.default_rng(seed)
        # Columns usable in predicates: exclude keys and FK columns (those
        # appear in join edges) to mirror how benchmark workloads are built.
        join_cols = set()
        for e in db.joins:
            join_cols.add((e.left_table, e.left_column))
            join_cols.add((e.right_table, e.right_column))
        self._pred_columns: dict[str, list[str]] = {}
        for tname, table in db.tables.items():
            usable = [
                c
                for c in table.column_names
                if not table.column(c).is_key and (tname, c) not in join_cols
            ]
            self._pred_columns[tname] = usable
        # Connected components of the join graph (deterministic order, no
        # RNG): generated schemas may have several components or isolated
        # tables, and subgraph sampling must stay inside one component.
        self._components = self._connected_components()
        self.max_component_size = max(len(c) for c in self._components)

    # -- subgraph selection -------------------------------------------------------

    def _connected_components(self) -> list[list[str]]:
        """Components of the join graph, each sorted, in first-table order."""
        seen: set[str] = set()
        components: list[list[str]] = []
        for start in self.db.table_names:
            if start in seen:
                continue
            seen.add(start)
            stack, comp = [start], [start]
            while stack:
                t = stack.pop()
                for nb in sorted(self.db.neighbors(t)):
                    if nb not in seen:
                        seen.add(nb)
                        stack.append(nb)
                        comp.append(nb)
            components.append(sorted(comp))
        return components

    def _grow_connected(self, start: str, n_tables: int) -> set[str]:
        """Random walk over join edges from ``start``; the returned set is
        connected and, when ``start``'s component has >= ``n_tables``
        tables, has exactly ``n_tables`` members (the frontier always
        holds every boundary edge of the chosen set)."""
        chosen = {start}
        frontier_edges = list(self.db.edges_for(start))
        while len(chosen) < n_tables and frontier_edges:
            edge = frontier_edges.pop(self.rng.integers(len(frontier_edges)))
            for t in (edge.left_table, edge.right_table):
                if t not in chosen:
                    chosen.add(t)
                    frontier_edges.extend(
                        e
                        for e in self.db.edges_for(t)
                        if e.other(t) not in chosen
                    )
            frontier_edges = [
                e
                for e in frontier_edges
                if e.left_table not in chosen or e.right_table not in chosen
            ]
        return chosen

    def _random_connected_tables(self, n_tables: int) -> list[str]:
        names = self.db.table_names
        if n_tables <= 1:
            return [names[self.rng.integers(len(names))]]
        if len(self._components) == 1:
            # Historical path (connected graphs): identical RNG draw
            # sequence, so pre-existing seeded workloads stay byte-equal.
            start = names[self.rng.integers(len(names))]
            chosen = self._grow_connected(start, n_tables)
            if len(chosen) == n_tables:
                return sorted(chosen)
            raise ValueError(
                f"join graph of {self.db.name!r} has no connected subgraph "
                f"of {n_tables} tables"
            )
        # Component-aware path: sample a component that can satisfy the
        # request, then walk inside it (edges never cross components, so
        # the walk is guaranteed to finish without retries).
        eligible = [c for c in self._components if len(c) >= n_tables]
        if not eligible:
            raise ValueError(
                f"join graph of {self.db.name!r} has no connected subgraph of "
                f"{n_tables} tables: component sizes are "
                f"{sorted((len(c) for c in self._components), reverse=True)}"
            )
        comp = eligible[self.rng.integers(len(eligible))]
        start = comp[self.rng.integers(len(comp))]
        return sorted(self._grow_connected(start, n_tables))

    def _joins_for(self, tables: list[str]) -> list[Join]:
        """All declared join edges internal to the chosen tables (cycle-keeping)."""
        tset = set(tables)
        joins = []
        for e in self.db.joins:
            if e.left_table in tset and e.right_table in tset:
                joins.append(
                    Join(
                        ColumnRef(e.left_table, e.left_column),
                        ColumnRef(e.right_table, e.right_column),
                    )
                )
        return joins

    # -- predicates ------------------------------------------------------------

    def _random_simple_predicate(self, tname: str, column: str) -> Predicate:
        values = self.db.table(tname).values(column)
        ref = ColumnRef(tname, column)
        op = self._RANGE_OPS[
            self.rng.choice(len(self._RANGE_OPS), p=self._RANGE_WEIGHTS)
        ]
        # Sample constants from the data so predicates are rarely vacuous.
        pick = lambda: float(values[self.rng.integers(values.shape[0])])  # noqa: E731
        if op is Op.BETWEEN:
            a, b = pick(), pick()
            return Predicate(ref, Op.BETWEEN, (min(a, b), max(a, b)))
        if op is Op.IN:
            k = int(self.rng.integers(1, 5))
            return Predicate(ref, Op.IN, frozenset(pick() for _ in range(k)))
        return Predicate(ref, op, pick())

    def _random_predicate(self, tname: str, column: str):
        if self.or_rate > 0.0 and self.rng.random() < self.or_rate:
            ref = ColumnRef(tname, column)
            parts = set()
            for _ in range(10):
                parts.add(self._random_simple_predicate(tname, column))
                if len(parts) >= 2:
                    break
            if len(parts) >= 2:
                return OrPredicate(ref, tuple(parts))
        return self._random_simple_predicate(tname, column)

    def _random_predicates(self, tables: list[str]) -> list[Predicate]:
        """Zero to two predicates per table, on distinct columns."""
        preds: list[Predicate] = []
        for tname in tables:
            usable = self._pred_columns[tname]
            if not usable:
                continue
            n = int(self.rng.integers(0, 2 + 1))
            if n == 0:
                continue
            cols = self.rng.choice(
                usable, size=min(n, len(usable)), replace=False
            )
            preds.extend(self._random_predicate(tname, c) for c in cols)
        return preds

    # -- public API --------------------------------------------------------------

    def random_query(
        self,
        min_tables: int = 1,
        max_tables: int = 4,
        require_predicate: bool = False,
    ) -> Query:
        """One random connected SPJ query."""
        if min_tables < 1 or max_tables < min_tables:
            raise ValueError("need 1 <= min_tables <= max_tables")
        # Join sizes are capped by the largest connected component, not the
        # table count -- on a disconnected (generated) schema the two differ.
        cap = self.max_component_size
        if min_tables > cap:
            raise ValueError(
                f"min_tables={min_tables} exceeds the largest connected "
                f"component of {self.db.name!r} ({cap} tables)"
            )
        n_tables = int(self.rng.integers(min_tables, min(max_tables, cap) + 1))
        tables = self._random_connected_tables(n_tables)
        joins = self._joins_for(tables)
        for _ in range(20):
            preds = self._random_predicates(tables)
            if preds or not require_predicate:
                break
        else:
            # Fall back: force one predicate on the first table that has
            # usable columns.
            preds = []
            for tname in tables:
                if self._pred_columns[tname]:
                    preds = [
                        self._random_predicate(tname, self._pred_columns[tname][0])
                    ]
                    break
        return Query(tuple(tables), tuple(joins), tuple(preds))

    def workload(
        self,
        n_queries: int,
        min_tables: int = 1,
        max_tables: int = 4,
        require_predicate: bool = False,
    ) -> list[Query]:
        """A list of random queries (duplicates allowed, as in real logs)."""
        return [
            self.random_query(min_tables, max_tables, require_predicate)
            for _ in range(n_queries)
        ]

    def single_table_workload(self, table: str, n_queries: int) -> list[Query]:
        """Single-table range workload ([61]-style static evaluation): one
        to three predicates a query, on distinct columns."""
        usable = self._pred_columns[table]
        if not usable:
            raise ValueError(f"table {table!r} has no predicate-eligible columns")
        queries = []
        for _ in range(n_queries):
            n = int(self.rng.integers(1, min(3, len(usable)) + 1))
            cols = self.rng.choice(usable, size=n, replace=False)
            preds = tuple(self._random_predicate(table, c) for c in cols)
            queries.append(Query((table,), (), preds))
        return queries

    def _rebind_simple(self, pred: Predicate) -> Predicate:
        """A fresh binding of one simple predicate: same column, same
        operator, same IN arity, new data-sampled literals."""
        values = self.db.table(pred.column.table).values(pred.column.column)
        pick = lambda: float(values[self.rng.integers(values.shape[0])])  # noqa: E731
        if pred.op is Op.BETWEEN:
            a, b = pick(), pick()
            return Predicate(pred.column, Op.BETWEEN, (min(a, b), max(a, b)))
        if pred.op is Op.IN:
            # Arity is part of the template (``IN (?, ?)``): draw until we
            # have exactly as many distinct values; a column with too few
            # distinct values keeps the original binding.
            k = len(pred.value)  # type: ignore[arg-type]
            chosen: set[float] = set()
            for _ in range(50):
                chosen.add(pick())
                if len(chosen) == k:
                    return Predicate(pred.column, Op.IN, frozenset(chosen))
            return Predicate(pred.column, Op.IN, pred.value)
        return Predicate(pred.column, pred.op, pick())

    def rebind(self, query: Query) -> Query:
        """A new parameter binding of ``query``: identical template
        (:attr:`~repro.sql.query.Query.template_key`), fresh literals."""
        preds: list = []
        for p in query.predicates:
            if isinstance(p, OrPredicate):
                preds.append(
                    OrPredicate(
                        p.column,
                        tuple(self._rebind_simple(part) for part in p.parts),
                    )
                )
            else:
                preds.append(self._rebind_simple(p))
        return Query(query.tables, query.joins, tuple(preds))

    def parameterized_workload(
        self,
        n_templates: int,
        bindings_per_template: int,
        min_tables: int = 1,
        max_tables: int = 4,
        require_predicate: bool = True,
    ) -> list[Query]:
        """A prepared-statement-style stream: few templates, many bindings.

        Draws ``n_templates`` random queries, then emits
        ``bindings_per_template`` rounds over them round-robin (the first
        round is the template itself, later rounds are :meth:`rebind`
        draws) -- the interleaved arrival pattern a plan cache sees in
        production.
        """
        if n_templates < 1 or bindings_per_template < 1:
            raise ValueError("need n_templates >= 1 and bindings_per_template >= 1")
        templates = [
            self.random_query(min_tables, max_tables, require_predicate)
            for _ in range(n_templates)
        ]
        out: list[Query] = []
        for round_i in range(bindings_per_template):
            for t in templates:
                out.append(t if round_i == 0 else self.rebind(t))
        return out

    # -- rewrite-susceptible shapes ----------------------------------------------

    def _disjoint_or_predicate(self, tname: str, column: str, k: int):
        """Disjunction of ``k`` pairwise-disjoint parts on one column.

        Built from sorted distinct data samples: adjacent non-overlapping
        BETWEEN intervals when the column has enough distinct values,
        distinct equality parts otherwise.  Disjointness is what makes the
        OR -> UNION rewrite applicable (branch counts must sum exactly).
        Returns None when the column is too degenerate (< 2 distinct values).
        """
        values = self.db.table(tname).values(column)
        ref = ColumnRef(tname, column)
        sample = values[self.rng.integers(values.shape[0], size=6 * k)]
        distinct = np.unique(sample.astype(np.float64))
        if distinct.shape[0] >= 2 * k:
            picks = np.sort(
                self.rng.choice(distinct, size=2 * k, replace=False)
            )
            parts = tuple(
                Predicate(
                    ref,
                    Op.BETWEEN,
                    (float(picks[2 * i]), float(picks[2 * i + 1])),
                )
                for i in range(k)
            )
            return OrPredicate(ref, parts)
        if distinct.shape[0] >= 2:
            n = min(k, distinct.shape[0])
            picks = self.rng.choice(distinct, size=n, replace=False)
            return OrPredicate(
                ref, tuple(Predicate(ref, Op.EQ, float(v)) for v in picks)
            )
        return None

    def _wide_in_predicate(self, tname: str, column: str, width: int):
        """IN predicate with up to ``width`` distinct data-sampled values."""
        values = self.db.table(tname).values(column)
        chosen: set[float] = set()
        for _ in range(8 * width):
            chosen.add(float(values[self.rng.integers(values.shape[0])]))
            if len(chosen) >= width:
                break
        if not chosen:
            return None
        return Predicate(ColumnRef(tname, column), Op.IN, frozenset(chosen))

    def _join_column_predicate(self, joins: list[Join]):
        """A range predicate on one side of a join -- the pushdown-blocked
        shape: the filter constrains only its own scan even though the
        equi-join makes it valid (and useful) on the other side too."""
        join = joins[self.rng.integers(len(joins))]
        side = join.left if self.rng.random() < 0.5 else join.right
        values = self.db.table(side.table).values(side.column)
        pick = lambda: float(values[self.rng.integers(values.shape[0])])  # noqa: E731
        a, b = pick(), pick()
        return Predicate(side, Op.BETWEEN, (min(a, b), max(a, b)))

    def _redundant_pair(self, tname: str, column: str):
        """Two same-column conjuncts where one subsumes the other."""
        values = self.db.table(tname).values(column)
        ref = ColumnRef(tname, column)
        a = float(values[self.rng.integers(values.shape[0])])
        b = float(values[self.rng.integers(values.shape[0])])
        lo, hi = min(a, b), max(a, b)
        if lo == hi:
            return None
        if self.rng.random() < 0.5:
            # col <= lo implies col <= hi: the looser bound is redundant.
            return [Predicate(ref, Op.LE, lo), Predicate(ref, Op.LE, hi)]
        return [Predicate(ref, Op.GE, hi), Predicate(ref, Op.GE, lo)]

    def _mergeable_pair(self, tname: str, column: str):
        """GE + LE conjuncts on one column, mergeable into a single BETWEEN."""
        values = self.db.table(tname).values(column)
        ref = ColumnRef(tname, column)
        a = float(values[self.rng.integers(values.shape[0])])
        b = float(values[self.rng.integers(values.shape[0])])
        lo, hi = min(a, b), max(a, b)
        return [Predicate(ref, Op.GE, lo), Predicate(ref, Op.LE, hi)]

    def rewrite_susceptible_workload(self, n_queries: int) -> list[Query]:
        """Queries of 2-4 tables deliberately shaped for the rewrite rule
        library.

        Each shape is injected with a per-query probability:

        - 0.35: a same-column disjunction of 3-5
          pairwise-disjoint parts (OR -> UNION split fodder);
        - 0.35: an IN list of 8-16 distinct values (IN -> join against a
          literal values relation);
        - 0.5: a range predicate on a join column of one side only
          (transitive predicate pushdown);
        - 0.3: a subsumed same-column conjunct pair (redundant-predicate
          elimination);
        - 0.3: a GE/LE pair on one column (range merging).

        Every query is guaranteed at least one susceptible shape, and
        generation is fully driven by the seeded RNG -- same seed, same
        workload.
        """
        out: list[Query] = []
        for _ in range(n_queries):
            cap = self.max_component_size
            if cap < 2:
                raise ValueError(
                    f"{self.db.name!r} has no two joined tables to rewrite "
                    f"(largest connected component: {cap} tables)"
                )
            n_tables = int(self.rng.integers(2, min(4, cap) + 1))
            tables = self._random_connected_tables(n_tables)
            joins = self._joins_for(tables)
            # Columns still unused by an injected shape, per table.
            free = {t: list(self._pred_columns[t]) for t in tables}
            preds: list = []

            def pop_column() -> tuple[str, str] | None:
                eligible = [t for t in tables if free[t]]
                if not eligible:
                    return None
                t = eligible[self.rng.integers(len(eligible))]
                c = free[t].pop(self.rng.integers(len(free[t])))
                return t, c

            def inject(shape: str) -> bool:
                if shape == "pushdown":
                    if not joins:
                        return False
                    preds.append(self._join_column_predicate(joins))
                    return True
                spot = pop_column()
                if spot is None:
                    return False
                t, c = spot
                if shape == "or_heavy":
                    k = int(self.rng.integers(3, 5 + 1))
                    built = self._disjoint_or_predicate(t, c, k)
                elif shape == "wide_in":
                    w = int(self.rng.integers(8, 16 + 1))
                    built = self._wide_in_predicate(t, c, w)
                elif shape == "redundant":
                    built = self._redundant_pair(t, c)
                else:  # mergeable
                    built = self._mergeable_pair(t, c)
                if built is None:
                    return False
                preds.extend(built if isinstance(built, list) else [built])
                return True

            shapes = (
                ("pushdown", 0.5),
                ("or_heavy", 0.35),
                ("wide_in", 0.35),
                ("redundant", 0.3),
                ("mergeable", 0.3),
            )
            injected = 0
            for shape, rate in shapes:
                if self.rng.random() < rate:
                    injected += inject(shape)
            if not injected:
                # Guarantee susceptibility: force the first shape that fits.
                for shape, _ in shapes:
                    if inject(shape):
                        break
            out.append(Query(tuple(tables), tuple(joins), tuple(preds)))
        return out

    def join_template_workload(self, tables: list[str], n_queries: int) -> list[Query]:
        """Queries over a fixed table set with varying predicates."""
        joins = self._joins_for(tables)
        probe = Query(tuple(tables), tuple(joins), ())
        if not probe.is_connected():
            raise ValueError(f"tables {tables} are not connected in the join graph")
        return [
            Query(
                tuple(tables),
                tuple(joins),
                tuple(self._random_predicates(list(tables))),
            )
            for _ in range(n_queries)
        ]
