"""The one exact counter against the pure-Python reference, on generated schemas.

``CardinalityExecutor`` counts every connected query by its join graph's
recipe (``sql/joingraph.py``): tables with one join left peel into message
weights, and a cyclic core is materialized -- once per plan pass -- with
lookup joins into columns unique over their table and expanding joins
otherwise, then summed as the product of its tables' weights.  Hypothesis
draws ``storage/schemagen.py`` databases with cycles (cliques, extra cycle
edges), parallel ``m2m`` edges and pendant trees hanging off a cycle,
re-keys every join column so ids are dense, negative or wide-span, and holds
every connected sub-query and every node of a plan pass to
``oracle.reference_count`` -- and again after a drift that appends a
duplicate id to a unique column, which turns its lookup off.  A chain past
2**53 hanging off a triangle makes the weights of core rows promote.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.engine.executor as executor_mod
from repro.bench import apply_drift
from repro.engine import CardinalityExecutor
from repro.optimizer import Optimizer
from repro.oracle import reference_count
from repro.sql import ColumnRef, Join, Op, Predicate, Query
from repro.sql.joingraph import join_graph
from repro.storage import Column, Database, JoinEdge, SchemaGenConfig, Table, generate_database

#: join-key layouts: key -> key * stride + offset on every join column (an
#: injective map, so every join matches the same rows)
KEYINGS = {
    "dense": (1, 0),
    "negative": (1, -20),
    "wide": (100_003, 0),
    "negative_wide": (9_973, -400_000),
}


def _rekey(db: Database, keying: str) -> None:
    stride, offset = KEYINGS[keying]
    columns = {(e.left_table, e.left_column) for e in db.joins}
    columns |= {(e.right_table, e.right_column) for e in db.joins}
    for table, name in sorted(columns):
        column = db.table(table).column(name)
        column.values = column.values * stride + offset


def _graph_query(db: Database, seed: int) -> Query:
    """Every table and every join edge of ``db``; each table filtered on
    ``a0`` with probability one half."""
    rng = np.random.default_rng(seed)
    predicates = []
    for table in db.table_names:
        if rng.random() < 0.5:
            values = db.table(table).values("a0")
            predicates.append(
                Predicate(ColumnRef(table, "a0"), Op.LE, float(np.median(values)))
            )
    joins = tuple(
        Join(ColumnRef(e.left_table, e.left_column), ColumnRef(e.right_table, e.right_column))
        for e in db.joins
    )
    return Query(tuple(db.table_names), joins, tuple(predicates))


def _assert_counts_as_the_reference(db: Database, query: Query) -> None:
    """Every connected sub-query through ``cardinality``, and every node of
    one plan of the whole query through a plan pass (where cores are
    shared), on a warm and on a cold executor."""
    expected = {sub.tables: reference_count(db, sub) for sub in query.connected_subqueries()}
    warm = CardinalityExecutor(db)
    for sub in query.connected_subqueries():
        assert warm.cardinality(sub) == expected[sub.tables], sub
    plan = Optimizer(db).plan(query)
    for executor in (warm, CardinalityExecutor(db)):
        for node, count in executor.plan_cardinalities(plan).items():
            assert count == expected[tuple(sorted(node.tables))], node


@st.composite
def cyclic_schemas(draw):
    """A small connected generated database with a cycle: a clique, or a
    random tree with extra cycle edges (pendant trees hang off the cycle),
    with and without a many-to-many edge (parallel to a key edge when both
    tables are already joined)."""
    config = SchemaGenConfig(
        n_tables=(3, 6),
        rows=(15, 40),
        attr_cols=(1, 1),
        topology=draw(st.sampled_from(("clique", "random"))),
        extra_edge_rate=draw(st.sampled_from((0.3, 0.6, 1.0))),
        many_to_many_rate=draw(st.sampled_from((0.0, 1.0))),
    )
    return generate_database(draw(st.integers(0, 10_000)), config, name="gen")


@given(
    cyclic_schemas(),
    st.sampled_from(sorted(KEYINGS)),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_connected_subquery_counts_as_the_reference(db, keying, seed):
    _rekey(db, keying)
    query = _graph_query(db, seed)
    _assert_counts_as_the_reference(db, query)
    # a duplicate id: the victim's key is no longer unique, so every join
    # into it expands instead of looking up
    victim = db.table(db.table_names[seed % len(db.table_names)])
    victim.column("id").is_key = False
    apply_drift(db, fraction=0.25, seed=seed % 1000)
    assert np.unique(victim.values("id")).size < victim.n_rows
    _assert_counts_as_the_reference(db, query)


#: a cycle of four tables with a parallel many-to-many pair inside it and
#: two pendant tables hanging off it
_SHAPED = SchemaGenConfig(
    n_tables=(6, 6),
    rows=(15, 40),
    attr_cols=(1, 1),
    topology="random",
    extra_edge_rate=0.3,
    many_to_many_rate=1.0,
)


@pytest.mark.parametrize("keying", sorted(KEYINGS))
def test_lookups_take_both_paths_and_a_drift_turns_one_off(keying, monkeypatch):
    db = generate_database(12, _SHAPED, name="gen")
    query = _graph_query(db, 0)
    peel, core, core_joins = join_graph(query).recipe
    assert [t for t, *_ in peel] == ["t2", "t4"] and core == ("t0", "t1", "t3", "t5")
    assert "t3.m2m0 = t5.m2m0" in map(str, core_joins)  # parallel to t3.id = t5.fk_t3
    _rekey(db, keying)
    lookups = []
    unique_lookup = executor_mod.unique_lookup

    def spy(full, span, values, rows, probe_keys):
        lookups.append((values, span))
        return unique_lookup(full, span, values, rows, probe_keys)

    monkeypatch.setattr(executor_mod, "unique_lookup", spy)
    _assert_counts_as_the_reference(db, query)
    spans = {span for _, span in lookups}
    if keying == "dense":  # a row-of-key table
        assert all(span is not None and span <= 40 for span in spans)
    else:  # negative keys have no span, wide ones fall outside the cut
        assert all(span is None or span > 4096 + 8 * 40 for span in spans)
    victim = db.table("t3")
    assert any(values is victim.values("id") for values, _ in lookups)
    victim.column("id").is_key = False
    apply_drift(db, fraction=0.25, seed=1)
    del lookups[:]
    _assert_counts_as_the_reference(db, query)
    assert lookups, "the drift left no lookup to take"
    assert not any(values is victim.values("id") for values, _ in lookups)


# -- weights past 2**53 on core rows --------------------------------------------------

#: per-key row counts of the chains' tables (odd, so every product is odd)
_BASE = (101, 103, 107, 109, 113)


def _chain(prefix: str, length: int, step: int) -> tuple[list[Table], list[JoinEdge], list[int]]:
    """``length`` tables joined on ``key``; table ``i`` holds
    ``_BASE[k] + step * i`` rows of key ``k``.  Returns the tables, their
    edges and each key's exact chain count."""
    tables, edges, per_key = [], [], [1] * len(_BASE)
    for i in range(length):
        counts = [c + step * i for c in _BASE]
        per_key = [p * c for p, c in zip(per_key, counts)]
        key = np.repeat(np.arange(len(_BASE), dtype=np.int64), counts)
        tables.append(Table(f"{prefix}{i}", [Column("key", key)]))
        if i:
            edges.append(JoinEdge(f"{prefix}{i - 1}", "key", f"{prefix}{i}", "key"))
    return tables, edges, per_key


@pytest.mark.parametrize("length", [8, 10])
def test_chains_past_2_53_hanging_off_a_triangle(length):
    """Two chains hang off a triangle, so two of its tables carry weights
    past 2**53 (past 2**63 for ten tables) into the core, and the product of
    theirs on each core row, and the total, must promote instead of round."""
    rng = np.random.default_rng(length)
    x = Table(
        "x", [Column("id", np.arange(6), is_key=True), Column("key", np.arange(6) % 5)]
    )
    y = Table("y", [Column("id", np.arange(8), is_key=True), Column("xid", rng.integers(0, 6, 8))])
    z = Table(
        "z",
        [
            Column("xid", rng.integers(0, 6, 30)),
            Column("yid", rng.integers(0, 8, 30)),
            Column("key", rng.integers(0, 5, 30)),
        ],
    )
    c_tables, c_edges, c_count = _chain("c", length, 2)
    d_tables, d_edges, d_count = _chain("d", 3, 4)
    db = Database(
        "triangle_chains",
        [x, y, z, *c_tables, *d_tables],
        [
            JoinEdge("y", "xid", "x", "id"),
            JoinEdge("z", "xid", "x", "id"),
            JoinEdge("z", "yid", "y", "id"),
            JoinEdge("z", "key", "c0", "key"),
            JoinEdge("x", "key", "d0", "key"),
            *c_edges,
            *d_edges,
        ],
    )
    expected = 0
    zx, zy, zk = (z.values(c).tolist() for c in ("xid", "yid", "key"))
    yx, xk = y.values("xid").tolist(), x.values("key").tolist()
    for row in range(z.n_rows):
        if yx[zy[row]] == zx[row]:
            expected += c_count[zk[row]] * d_count[xk[zx[row]]]
    assert expected > 2**63
    joins = tuple(
        Join(ColumnRef(e.left_table, e.left_column), ColumnRef(e.right_table, e.right_column))
        for e in db.joins
    )
    query = Query(tuple(db.table_names), joins)
    peel, core, core_joins = join_graph(query).recipe
    assert core == ("x", "y", "z") and len(peel) == length + 3
    assert CardinalityExecutor(db).cardinality(query) == expected
    plan = Optimizer(db).plan(query)
    assert CardinalityExecutor(db).plan_cardinalities(plan)[plan.root] == expected
