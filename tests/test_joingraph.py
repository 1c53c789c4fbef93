"""The compiled join graph against brute force and the loops it replaced.

:class:`repro.sql.joingraph.JoinGraph` is the one subset and partition
enumeration: the DP, LEON's top-k DP, ``Query.connected_subqueries`` and
the exact counter all read it.  Hypothesis draws databases from
``storage/schemagen.py`` over every join topology it makes -- chains,
stars, cliques, random trees with extra cycle edges, parallel ``m2m``
edges and disconnected components -- and holds each graph to:

- brute-force subset enumeration, order included;
- the DP's old partition double loop (``tests/planner_reference.py``);
- the counting recipe: peel steps that each take a table's last join, down
  to the brute-force 2-core (a tree's first table alone);
- ``oracle.reference_count`` on every connected sub-query, counted by
  ``CardinalityExecutor.cardinality`` through the graph's recipes.
"""

from __future__ import annotations

import pickle
from itertools import combinations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import CardinalityExecutor
from repro.optimizer import HintSet, Optimizer
from repro.optimizer.planner import enumerate_dp_arms
from repro.oracle import reference_count
from repro.sql import ColumnRef, Join, Op, Predicate, Query
from repro.sql.joingraph import join_graph
from repro.storage import TOPOLOGIES, SchemaGenConfig, generate_database
from tests.planner_reference import (
    reference_connected_subsets,
    reference_is_connected,
    reference_partitions,
)


def _graph_query(db, predicates=()) -> Query:
    """Every table of ``db`` and every declared join edge: one query whose
    join graph is the schema's."""
    joins = tuple(
        Join(ColumnRef(e.left_table, e.left_column), ColumnRef(e.right_table, e.right_column))
        for e in db.joins
    )
    return Query(tuple(db.table_names), joins, tuple(predicates))


@st.composite
def schemas(draw):
    """A small generated database: any topology, 1-3 components, with and
    without cycle-closing and many-to-many edges."""
    config = SchemaGenConfig(
        n_tables=(2, 6),
        rows=(15, 40),
        attr_cols=(1, 2),
        topology=draw(st.sampled_from(TOPOLOGIES)),
        n_components=draw(st.integers(1, 3)),
        extra_edge_rate=draw(st.sampled_from((0.0, 0.5, 1.0))),
        many_to_many_rate=draw(st.sampled_from((0.0, 1.0))),
    )
    return generate_database(draw(st.integers(0, 10_000)), config, name="gen")


@given(schemas())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_subsets_and_partitions_match_the_loops_they_replaced(db):
    query = _graph_query(db)
    graph = join_graph(query)
    expected = reference_connected_subsets(query)
    assert graph.subsets == expected
    assert [sub.tables for sub in query.connected_subqueries()] == [
        tuple(sorted(s)) for s in expected
    ]
    assert graph.connected == reference_is_connected(query, frozenset(query.tables))
    connected = set(expected)
    assert list(graph.partitions) == expected
    for subset in expected:
        assert list(graph.partitions[subset]) == reference_partitions(
            query, subset, connected
        )


@given(schemas(), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_connected_subquery_counts_as_the_reference(db, seed):
    rng = np.random.default_rng(seed)
    predicates = []
    for table in db.table_names:
        if rng.random() < 0.5:
            values = db.table(table).values("a0")
            predicates.append(Predicate(ColumnRef(table, "a0"), Op.LE, float(np.median(values))))
    query = _graph_query(db, predicates)
    executor = CardinalityExecutor(db)
    for sub in query.connected_subqueries():
        assert executor.cardinality(sub) == reference_count(db, sub), sub


def _brute_force_core(query: Query) -> set[str]:
    """The largest table set in which every table keeps at least two of the
    joins among the set (the union of two such sets is one, so it is
    unique): every subset tried."""
    best: set[str] = set()
    for size in range(2, query.n_tables + 1):
        for subset in combinations(query.tables, size):
            inside = set(subset)
            degree = dict.fromkeys(subset, 0)
            for j in query.joins:
                if j.left.table in inside and j.right.table in inside:
                    degree[j.left.table] += 1
                    degree[j.right.table] += 1
            if min(degree.values()) >= 2 and size > len(best):
                best = inside
    return best


@given(schemas())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_recipe_peels_to_the_brute_force_core(db):
    """Each peeled table has exactly one join left when its step runs, and
    leaves with it; no core table is left with one join; the core is the
    brute-force 2-core, and a tree's core is its first table alone."""
    query = _graph_query(db)
    if not join_graph(query).connected:
        assert join_graph(query).recipe is None
    for sub in query.connected_subqueries():
        peel, core, core_joins = join_graph(sub).recipe
        left = list(sub.joins)
        for table, neighbour, column, neighbour_column in peel:
            (join,) = [j for j in left if table in (j.left.table, j.right.table)]
            assert {(join.left.table, join.left.column), (join.right.table, join.right.column)} == {
                (table, column),
                (neighbour, neighbour_column),
            }
            left.remove(join)
        assert sorted([t for t, *_ in peel] + list(core)) == list(sub.tables)
        assert tuple(left) == core_joins
        if core_joins:
            assert all(
                sum(t in (j.left.table, j.right.table) for j in core_joins) >= 2 for t in core
            )
        expected = _brute_force_core(sub)
        if expected:
            assert set(core) == expected
        else:  # a tree
            assert len(sub.joins) == sub.n_tables - 1
            assert core == sub.tables[:1] and core_joins == ()


def test_a_planned_query_keeps_only_what_planning_needs():
    """The DP restricts the query to its connected subsets only -- 10 of
    the 15 table sets of a 4-chain -- and keys the cardinality cache by
    field tuples, so no sub-query renders or digests its SQL."""
    db = generate_database(
        0,
        SchemaGenConfig(n_tables=(4, 4), rows=(20, 40), topology="chain", many_to_many_rate=0.0),
        name="gen",
    )
    query = _graph_query(db)
    assert len(query.joins) == 3
    enumerate_dp_arms(query, Optimizer(db).coster, HintSet.bao_arms())
    subqueries = query.__dict__["_subqueries"]
    assert len(subqueries) == 10
    assert all(sub.is_connected() for sub in subqueries.values())
    for sub in subqueries.values():
        assert "_cache_key" not in sub.__dict__ and "_query_hash" not in sub.__dict__


def test_one_graph_per_shape_and_a_copy_finds_it():
    db = generate_database(1, SchemaGenConfig(n_tables=(5, 5), topology="clique"), name="gen")
    query = _graph_query(db)
    twin = Query(query.tables, query.joins, (Predicate(ColumnRef("t0", "a0"), Op.GE, 0.0),))
    assert join_graph(twin) is join_graph(query)
    assert pickle.loads(pickle.dumps(query)).__dict__["_graph"] is join_graph(query)
    sub = query.restrict(query.tables[:3])
    assert join_graph(sub) is join_graph(Query(sub.tables, sub.joins))
    peel, core, core_joins = join_graph(query).recipe
    assert (peel, core, core_joins) == ((), query.tables, query.joins)  # a clique is all core
