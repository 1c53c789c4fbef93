"""Differential tests: the batched native estimator vs the kept scalar path.

``TraditionalCardinalityEstimator.estimate_batch`` derives each table's
selectivity once per distinct predicate set in the batch,
``ColumnStats.range_selectivity`` adds its buckets with array ops, and
``Predicate`` / ``Join`` render their text once.  ``tests/statistics_reference.py``
keeps the per-bucket loop, the memo-free estimator and the renderer they
replaced.  Selectivities and estimates must be ``==`` (bit-equal, as
float hex), text must be equal -- on hypothesis-drawn histograms, on the
connected sub-queries the DP batches for stats-lite, imdb-lite and a
generated schema, with each of the oracle's estimator-layer mutations
installed, and across a statistics refresh.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import apply_drift
from repro.cardest.traditional import HistogramEstimator
from repro.optimizer.statistics import ColumnStats
from repro.optimizer.traditional import TraditionalCardinalityEstimator
from repro.oracle.mutations import apply_mutation
from repro.sql import ColumnRef, Op, OrPredicate, Predicate, Query, WorkloadGenerator
from repro.sql.query import query_hash
from repro.storage import make_stats_lite
from repro.storage.schemagen import SchemaGenConfig, generate_database
from tests.statistics_reference import (
    ReferenceTraditionalEstimator,
    reference_join_text,
    reference_predicate_text,
    reference_query_hash,
    reference_range_selectivity,
    reference_template_key,
    reference_to_sql,
)

ESTIMATOR_MUTATIONS = (
    "estimate_negative",
    "estimate_nan",
    "estimate_overscaled",
    "eq_ignores_domain",
    "range_counts_touching_degenerate",
)

# -- the histogram ------------------------------------------------------------------

#: values that edges, MCVs and endpoints share, so ties and exact hits are common
POOL = (-3.0, -1.0, 0.0, 0.5, 2.0, 7.0, 1e6)
values = st.sampled_from(POOL) | st.floats(-100, 100, allow_nan=False)


@st.composite
def column_stats(draw) -> ColumnStats:
    """Hand-drawn statistics: heavy ties, degenerate buckets, MCV-only
    columns, empty and one-edge histograms, empty columns."""
    edges = np.sort(np.array(draw(st.lists(values, max_size=34)), dtype=float))
    mcvs = draw(st.lists(values, max_size=10, unique=True))
    freqs = draw(st.lists(st.floats(0, 0.2), min_size=len(mcvs), max_size=len(mcvs)))
    return ColumnStats(
        n_rows=draw(st.integers(0, 1000)),
        n_distinct=draw(st.integers(0, 50)),
        min_value=-100.0,
        max_value=100.0,
        mcv_values=np.array(mcvs, dtype=float),
        mcv_freqs=np.array(freqs, dtype=float),
        histogram_bounds=edges,
        non_mcv_fraction=draw(st.sampled_from([0.0, 1.0]) | st.floats(0, 1)),
    )


@st.composite
def built_stats(draw) -> ColumnStats:
    """``ColumnStats.build`` over a few distinct values: MCV-only columns,
    and past the ten MCVs quantile edges that tie."""
    data = draw(st.lists(st.integers(0, 24).map(float), max_size=200))
    return ColumnStats.build(
        np.array(data, dtype=float), n_bins=draw(st.sampled_from([1, 4, 32]))
    )


@st.composite
def ranges(draw, stats: ColumnStats):
    """``(lo, hi, inclusive_lo, inclusive_hi)``: endpoints on edges, on MCVs,
    at +/-inf, anywhere; sometimes ``lo == hi``."""
    on_data = [*stats.histogram_bounds.tolist(), *stats.mcv_values.tolist()]
    endpoint = st.sampled_from([-np.inf, np.inf, *on_data]) | values
    lo = draw(endpoint)
    hi = lo if draw(st.booleans()) else draw(endpoint)
    return lo, hi, draw(st.booleans()), draw(st.booleans())


def _bits(x) -> str:
    return float(x).hex()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_range_selectivity_equals_the_bucket_loop(data):
    stats = data.draw(column_stats() | built_stats())
    for _ in range(8):
        lo, hi, inc_lo, inc_hi = data.draw(ranges(stats))
        got = stats.range_selectivity(lo, hi, inclusive_lo=inc_lo, inclusive_hi=inc_hi)
        want = reference_range_selectivity(
            stats, lo, hi, inclusive_lo=inc_lo, inclusive_hi=inc_hi
        )
        assert got == want and _bits(got) == _bits(want), (lo, hi, inc_lo, inc_hi)


def test_built_statistics_edge_cases_equal_the_bucket_loop():
    """The shapes the property draws, as ``ColumnStats.build`` makes them."""
    # ten MCVs (100..109, twenty rows each), then a tied remainder
    mcvs = [float(v) for v in range(100, 110) for _ in range(20)]
    ties = ColumnStats.build(np.array(mcvs + [1.0] * 15 + [2.0] * 10 + list(range(3, 9))))
    edges = ties.histogram_bounds
    assert (edges[1:] == edges[:-1]).any(), "no degenerate bucket"
    mcv_only = ColumnStats.build(np.array([1.0, 1.0, 2.0]))
    assert mcv_only.histogram_bounds.size == 0 and mcv_only.non_mcv_fraction == 0.0
    for stats in (ties, mcv_only):
        for lo, hi, inc_lo, inc_hi in [
            (edges[3], edges[3], True, True),
            (-np.inf, edges[5], True, False),
            (edges[1], np.inf, False, True),
            (1.0, 1.0, True, True),
            (2.0, 2.0, False, True),
        ]:
            got = stats.range_selectivity(lo, hi, inclusive_lo=inc_lo, inclusive_hi=inc_hi)
            want = reference_range_selectivity(
                stats, lo, hi, inclusive_lo=inc_lo, inclusive_hi=inc_hi
            )
            assert _bits(got) == _bits(want)


# -- the estimator ------------------------------------------------------------------


def _strict(query: Query) -> Query:
    """``<=`` / ``>=`` made strict: the generator draws neither ``<`` nor ``>``."""
    flip = {Op.LE: Op.LT, Op.GE: Op.GT}
    return Query(
        query.tables,
        query.joins,
        tuple(
            Predicate(p.column, flip[p.op], p.value) if p.op in flip else p
            for p in query.predicates
        ),
    )


@pytest.fixture(scope="module")
def generated():
    """A generated schema and a workload on it with IN, OR, BETWEEN, < and >."""
    db = generate_database(3, SchemaGenConfig(n_tables=(5, 6), rows=(200, 600)), name="gen")
    queries = WorkloadGenerator(db, seed=4, or_rate=0.3).workload(
        40, 1, 4, require_predicate=True
    )
    queries = [_strict(q) if i % 2 else q for i, q in enumerate(queries)]
    ops = {p.op for q in queries for p in q.predicates}
    assert {Op.IN, Op.OR, Op.BETWEEN, Op.LT, Op.GT} <= ops
    return db, queries


def _edge_queries(db, est: TraditionalCardinalityEstimator) -> list[Query]:
    """One table's columns probed where the estimator's branches split:
    strict bounds on its first three MCVs, equality outside the domain."""
    table = max(db.tables, key=lambda t: db.table(t).n_rows)
    out = []
    for column in db.table(table).column_names:
        stats = est.stats.table(table).column(column)
        ref = ColumnRef(table, column)
        for v in stats.mcv_values.tolist()[:3]:
            out += [Query((table,), (), (Predicate(ref, op, v),)) for op in (Op.LT, Op.GT)]
        out.append(Query((table,), (), (Predicate(ref, Op.EQ, stats.max_value + 1e6),)))
    return out


def _batches(queries) -> list[list[Query]]:
    """What the DP hands the estimator: one query's connected sub-queries."""
    return [q.connected_subqueries() for q in queries]


def _assert_batches_agree(est, batches, reference=None) -> np.ndarray:
    out = []
    for batch in batches:
        batched = est.estimate_batch(batch)
        scalar = np.array([est.estimate(q) for q in batch], dtype=float)
        assert batched.tobytes() == scalar.tobytes()
        if reference is not None:
            expected = np.array([reference.estimate(q) for q in batch], dtype=float)
            assert batched.tobytes() == expected.tobytes()
        out.append(batched)
    return np.concatenate(out)


@pytest.mark.parametrize("workload", ["stats_lite", "imdb_lite", "generated"])
def test_batch_equals_scalar_equals_reference(workload, stats_db, imdb_db, generated):
    if workload == "generated":
        db, queries = generated
    else:
        db = stats_db if workload == "stats_lite" else imdb_db
        queries = WorkloadGenerator(db, seed=21).workload(40, 1, 5, require_predicate=True)
    est = TraditionalCardinalityEstimator(db)
    reference = ReferenceTraditionalEstimator(db, est.stats)
    batches = _batches(queries) + [_edge_queries(db, est)]
    assert max(len(b) for b in batches) > 5
    _assert_batches_agree(est, batches, reference)
    # one batch across many queries shares the memo between them too
    every = [sub for batch in batches for sub in batch]
    assert est.estimate_batch(every).tobytes() == np.array(
        [reference.estimate(q) for q in every]
    ).tobytes()
    assert "_selectivities" not in vars(est), "the memo outlived its call"


def test_each_predicate_set_is_priced_once_per_batch(stats_db, stats_workload, monkeypatch):
    est = TraditionalCardinalityEstimator(stats_db)
    batch = [sub for q in stats_workload for sub in q.connected_subqueries()]
    priced = []
    predicate_selectivity = est.predicate_selectivity
    monkeypatch.setattr(
        est, "predicate_selectivity", lambda p: priced.append(p) or predicate_selectivity(p)
    )
    distinct = {(t, q.predicates_on(t)) for q in batch for t in q.tables}
    once = sum(len(preds) for _, preds in distinct)
    assert once < sum(len(q.predicates) for q in batch) / 2
    est.estimate_batch(batch)
    assert len(priced) == once
    del priced[:]
    est.estimate_batch(batch)  # a second batch starts from an empty memo
    assert len(priced) == once


@pytest.mark.parametrize("name", ESTIMATOR_MUTATIONS)
def test_mutations_move_batch_and_scalar_alike(name, stats_db, generated):
    db, queries = generated
    est = TraditionalCardinalityEstimator(db)
    batches = _batches(queries[::2]) + [_edge_queries(db, est)]
    clean = _assert_batches_agree(est, batches)
    with apply_mutation(name):
        mutated = _assert_batches_agree(est, batches)
    assert mutated.tobytes() != clean.tobytes(), f"{name} is not dispatched through"


def test_refresh_between_batches_is_seen():
    db = make_stats_lite(scale=0.3, seed=3)
    est = TraditionalCardinalityEstimator(db)
    batches = _batches(WorkloadGenerator(db, seed=13).workload(15, 1, 4, require_predicate=True))
    before = _assert_batches_agree(est, batches)
    apply_drift(db, fraction=0.3, seed=1)
    est.stats.refresh(db)
    after = _assert_batches_agree(est, batches, ReferenceTraditionalEstimator(db))
    assert after.tobytes() != before.tobytes(), "the drift moved no estimate"


def test_histogram_estimator_forwards_the_batch(stats_db, stats_workload):
    est = HistogramEstimator(stats_db)
    batch = [sub for q in stats_workload for sub in q.connected_subqueries()]
    scalar = np.array([est.estimate(q) for q in batch], dtype=float)
    assert est.estimate_batch(batch).tobytes() == scalar.tobytes()


# -- the text -----------------------------------------------------------------------


def _assert_text(query: Query) -> None:
    for p in query.predicates:
        assert str(p) == reference_predicate_text(p)
        if isinstance(p, Predicate):
            assert str(p) is str(p), "rendered twice"
    for j in query.joins:
        assert str(j) == reference_join_text(j) and str(j) is str(j)
    assert query.cache_key == query.to_sql() == str(query) == reference_to_sql(query)
    assert query.template_key is query.template_key, "built twice"
    assert query_hash(query) == reference_query_hash(query)


def test_text_equals_the_reference_renderer(stats_workload, generated):
    _, queries = generated
    for query in [*stats_workload, *queries]:
        _assert_text(query)
        for clone in (pickle.loads(pickle.dumps(query)), copy.deepcopy(query)):
            assert clone == query and hash(clone) == hash(query)
            _assert_text(clone)
            assert clone.cache_key == query.cache_key
            assert clone.template_key == query.template_key
    # the tuple key and the text one partition the queries alike
    pairs = {(q.template_key, reference_template_key(q)) for q in [*stats_workload, *queries]}
    assert len(pairs) == len({k for k, _ in pairs}) == len({t for _, t in pairs})


def test_replace_renders_afresh(stats_workload, generated):
    _, queries = generated
    preds = [p for q in [*stats_workload, *queries] for p in q.predicates]
    scalar = next(p for p in preds if isinstance(p, Predicate) and p.op is Op.LE)
    text = str(scalar)
    moved = dataclasses.replace(scalar, value=scalar.value + 1.5)
    assert str(moved) == reference_predicate_text(moved) != text
    strict = dataclasses.replace(scalar, op=Op.LT)
    assert str(strict) == reference_predicate_text(strict) != text
    disjunction = next(p for p in preds if isinstance(p, OrPredicate))
    assert str(disjunction) == reference_predicate_text(disjunction)
    join = next(j for q in stats_workload for j in q.joins)
    flipped = dataclasses.replace(join, left=join.right, right=join.left)
    assert str(flipped) == reference_join_text(flipped) != str(join)
    assert str(scalar) == text  # the original kept its own text
