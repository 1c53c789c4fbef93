"""Purpose-built databases for the oracle gate and its tests.

:func:`make_deep_chain` constructs a join chain whose exact count exceeds
2**53 -- the float64 exactness limit -- so any float accumulation anywhere
in the counting path produces a visibly wrong answer.  The construction
also returns the closed-form expected count (computed in Python ints from
the generating parameters), giving tests a third independent answer.

:func:`make_probe_table` builds the ``probe`` table whose columns are
engineered to expose the satellite selectivity bugs: ``big`` puts point
mass at a ~2e9 maximum (where a 1e-9 epsilon shift vanishes entirely) and
``skew`` fills whole equi-depth buckets with its maximum value so the
histogram keeps *degenerate* buckets at the domain edge.
"""

from __future__ import annotations

import numpy as np

from repro.sql.query import ColumnRef, Join, Query
from repro.storage.catalog import Database, JoinEdge
from repro.storage.table import Column, Table

__all__ = ["make_deep_chain", "make_probe_table", "chain_query"]

#: per-key row counts of the first chain table; all odd, so every per-key
#: product and the final sum stay odd -- an odd total above 2**53 is never
#: float64-representable, which is what makes the float mutation visible
_BASE_COUNTS = (101, 103, 107, 109, 113)


def make_probe_table() -> Table:
    """The 700-row ``probe`` table: columns that stress domain-edge
    selectivity."""
    # skew: ten heavy values own the MCV list; the non-MCV remainder mixes
    # 167 distinct values with 33 copies of the maximum (5000), which span
    # several full equi-depth buckets -> degenerate buckets at the max.
    skew = np.concatenate(
        [
            np.repeat(np.arange(10, 110, 10), 50),
            np.arange(200, 367),
            np.full(33, 5000),
        ]
    ).astype(np.int64)
    # big: ~2e9 magnitude with repeated maximum, so strict comparisons at
    # the domain edge are only correct with true open-endpoint semantics.
    big = (1_999_999_000 + (np.arange(skew.size) % 100) * 10).astype(np.int64)
    big[-60:] = 2_000_000_000
    return Table(
        "probe",
        [
            Column("id", np.arange(skew.size, dtype=np.int64), is_key=True),
            Column("skew", np.sort(skew)),
            Column("big", np.sort(big)),
        ],
    )


def _chain_table(index: int, counts: list[int], rng: np.random.Generator) -> Table:
    key = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    n = key.shape[0]
    val = rng.integers(0, 1000, size=n).astype(np.int64)
    return Table(
        f"c{index}",
        [
            Column("key", key),
            Column("val", val),
        ],
    )


def make_deep_chain(
    n_tables: int = 8, seed: int = 0
) -> tuple[Database, Query, int]:
    """A join chain whose exact count exceeds 2**53.

    Tables ``c0 .. c{n-1}`` each hold one row group per key in
    ``range(len(_BASE_COUNTS))``; table ``i`` has ``_BASE_COUNTS[k] + 2*i``
    rows for key ``k`` (odd counts throughout).  The chain query joining
    them all on ``key`` therefore counts exactly
    ``sum_k prod_i (_BASE_COUNTS[k] + 2*i)`` -- ~1.7e16 for the default
    eight tables, past float64 exactness.  Returns
    ``(database, chain query, expected count)`` with the expectation
    computed in Python-int arithmetic straight from the parameters.
    """
    if n_tables < 2:
        raise ValueError("chain needs at least two tables")
    rng = np.random.default_rng(seed)
    per_table_counts = [
        [c + 2 * i for c in _BASE_COUNTS] for i in range(n_tables)
    ]
    tables = [
        _chain_table(i, counts, rng)
        for i, counts in enumerate(per_table_counts)
    ]
    tables.append(make_probe_table())
    edges = [
        JoinEdge(f"c{i}", "key", f"c{i + 1}", "key")
        for i in range(n_tables - 1)
    ]
    db = Database("deep_chain", tables, edges)
    expected = 0
    for k in range(len(_BASE_COUNTS)):
        product = 1
        for counts in per_table_counts:
            product *= counts[k]
        expected += product
    return db, chain_query(n_tables), expected


def chain_query(n_tables: int) -> Query:
    """The full-chain join query over ``c0 .. c{n-1}``."""
    joins = tuple(
        Join(ColumnRef(f"c{i}", "key"), ColumnRef(f"c{i + 1}", "key"))
        for i in range(n_tables - 1)
    )
    return Query(tuple(f"c{i}" for i in range(n_tables)), joins, ())
