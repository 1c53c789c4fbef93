"""Seeded random schema + data generator: whole families of databases.

The repo's three hand-built datasets (imdb/stats/tpch "lite") cover three
benchmark styles, but measuring *cross-schema generalization* -- the
survey's central open question, and the axis "How Good are Learned Cost
Models, Really?" shows transfer claims collapse without -- needs schema
and workload diversity at scale.  This module emits arbitrarily many
databases from a single seed:

- **variable table counts** and per-table row counts / column counts;
- **join topologies**: chains, stars, cliques, random trees with extra
  cycle edges, multiple connected components (including isolated
  tables), and STATS-style **non-PK-FK many-to-many edges** between
  attribute columns drawn from a shared domain;
- **data profiles** reusing the :mod:`repro.storage.generate`
  primitives: per-column Zipf skew, cross-column correlation, Gaussian
  mixtures, and Zipf-skewed FK fan-outs.

Everything is a pure function of ``(seed, config)``: the same seed
produces byte-identical tables (same values, same dtypes, same join
edges), certified by :func:`database_fingerprint` -- a sha256 over the
full schema *and* column bytes that two fresh processes can compare.
:func:`schema_family` derives per-member seeds from one family seed, so
"generate me 20 databases" is one call and one seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.core.errors import ConfigError
from repro.storage.catalog import Database, JoinEdge
from repro.storage.generate import (
    correlated_column,
    fk_column,
    mixture_column,
    uniform_int_column,
    zipf_column,
)
from repro.storage.table import Column, Table

__all__ = [
    "TOPOLOGIES",
    "SchemaGenConfig",
    "generate_database",
    "schema_family",
    "database_fingerprint",
    "topology_summary",
]

#: accepted join-graph shapes; "random" draws a spanning tree plus extra
#: cycle edges, the named shapes are exact.
TOPOLOGIES = ("chain", "star", "clique", "random")


@dataclass(frozen=True)
class SchemaGenConfig:
    """Knobs for one schema family; every range is inclusive.

    ``n_components > 1`` splits the tables into that many independently
    wired connected components (the last components may be singletons --
    isolated tables -- when there are not enough tables to go around),
    which is exactly the shape that used to break the workload
    generator's connected-subgraph sampler.
    """

    n_tables: tuple[int, int] = (4, 7)
    rows: tuple[int, int] = (300, 1200)
    attr_cols: tuple[int, int] = (1, 3)
    topology: str = "random"
    n_components: int = 1
    #: probability of each extra (cycle-creating) PK-FK edge in "random"
    extra_edge_rate: float = 0.25
    #: probability of adding one non-PK-FK (many-to-many) attribute edge
    many_to_many_rate: float = 0.35
    #: Zipf skew range for categorical attribute columns
    skew: tuple[float, float] = (0.0, 1.8)
    #: probability an attribute column correlates with the previous one
    correlated_rate: float = 0.35
    #: probability an attribute column is a Gaussian-mixture float column
    mixture_rate: float = 0.15
    #: categorical domain-size range
    domain: tuple[int, int] = (8, 120)
    #: FK fan-out skew range
    fanout_skew: tuple[float, float] = (0.0, 1.5)

    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGIES:
            raise ConfigError(
                f"unknown topology {self.topology!r}; one of {TOPOLOGIES}"
            )
        for name in ("n_tables", "rows", "attr_cols", "skew", "domain", "fanout_skew"):
            lo, hi = getattr(self, name)
            if hi < lo:
                raise ConfigError(f"{name} range {lo, hi} has hi < lo")
        if self.n_tables[0] < 1:
            raise ConfigError("need at least one table")
        if self.rows[0] < 1:
            raise ConfigError("every table needs at least one row")
        if self.attr_cols[0] < 1:
            # Every table needs >= 1 predicate-eligible column or the
            # workload generator cannot put a filter on it.
            raise ConfigError("every table needs at least one attribute column")
        if self.n_components < 1:
            raise ConfigError("n_components must be >= 1")
        for name in ("extra_edge_rate", "many_to_many_rate",
                     "correlated_rate", "mixture_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1]")


def _irange(rng: np.random.Generator, bounds: tuple[int, int]) -> int:
    return int(rng.integers(bounds[0], bounds[1] + 1))


def _frange(rng: np.random.Generator, bounds: tuple[float, float]) -> float:
    lo, hi = bounds
    return float(lo + (hi - lo) * rng.random())


def _component_edges(
    tables: list[int], topology: str, extra_edge_rate: float,
    rng: np.random.Generator,
) -> list[tuple[int, int]]:
    """(parent, child) PK-FK pairs wiring one component's tables."""
    if len(tables) < 2:
        return []
    edges: list[tuple[int, int]] = []
    if topology == "chain":
        edges = [(tables[i], tables[i + 1]) for i in range(len(tables) - 1)]
    elif topology == "star":
        hub = tables[0]
        edges = [(hub, t) for t in tables[1:]]
    elif topology == "clique":
        edges = [
            (tables[i], tables[j])
            for i in range(len(tables))
            for j in range(i + 1, len(tables))
        ]
    else:  # random: spanning tree + extra cycle edges
        for i in range(1, len(tables)):
            parent = tables[int(rng.integers(i))]
            edges.append((parent, tables[i]))
        present = set(edges)
        for i in range(len(tables)):
            for j in range(i + 1, len(tables)):
                pair = (tables[i], tables[j])
                if pair in present or (pair[1], pair[0]) in present:
                    continue
                if rng.random() < extra_edge_rate:
                    edges.append(pair)
                    present.add(pair)
    return edges


def generate_database(
    seed: int,
    config: SchemaGenConfig | None = None,
    *,
    name: str,
) -> Database:
    """One random database named ``name``: a pure function of ``(seed, config)``.

    Tables are named ``t0 .. tN``; each has an ``id`` primary key, one
    ``fk_<parent>`` column per incoming PK-FK edge, and 1+ attribute
    columns (``a0 ..``) with seeded skew / correlation / mixture
    profiles.  Non-PK-FK edges join dedicated ``m2m<k>`` attribute
    columns generated over a shared domain on both sides, so the join
    actually matches rows (the STATS-style many-to-many regime).
    """
    cfg = config if config is not None else SchemaGenConfig()
    rng = np.random.default_rng((int(seed), 0xC0DE))
    n_tables = _irange(rng, cfg.n_tables)

    # -- partition tables into components and wire each one -----------------------
    ids = list(range(n_tables))
    n_comp = min(cfg.n_components, n_tables)
    # Contiguous partition with every component non-empty; the split
    # points are seeded so component sizes vary across the family.
    if n_comp > 1:
        cuts = sorted(
            int(c) for c in rng.choice(
                np.arange(1, n_tables), size=n_comp - 1, replace=False
            )
        )
    else:
        cuts = []
    components: list[list[int]] = []
    prev = 0
    for cut in cuts + [n_tables]:
        components.append(ids[prev:cut])
        prev = cut
    pk_edges: list[tuple[int, int]] = []
    for comp in components:
        pk_edges.extend(
            _component_edges(comp, cfg.topology, cfg.extra_edge_rate, rng)
        )

    # -- non-PK-FK many-to-many edges (within a component) -------------------------
    m2m_edges: list[tuple[int, int, int]] = []  # (a, b, domain)
    for comp in components:
        if len(comp) >= 2 and rng.random() < cfg.many_to_many_rate:
            i, j = sorted(
                int(x) for x in rng.choice(len(comp), size=2, replace=False)
            )
            m2m_edges.append(
                (comp[i], comp[j], _irange(rng, cfg.domain))
            )

    # -- per-table row counts and attribute plans ----------------------------------
    n_rows = [_irange(rng, cfg.rows) for _ in ids]
    n_attrs = [_irange(rng, cfg.attr_cols) for _ in ids]
    parents_of: dict[int, list[int]] = {t: [] for t in ids}
    for parent, child in pk_edges:
        parents_of[child].append(parent)

    # -- generate data, parents before children (ids are arange, so any
    #    order works; FK columns just need the parent's row count) ---------------
    tables: list[Table] = []
    joins: list[JoinEdge] = []
    m2m_cols: dict[int, list[tuple[str, int]]] = {t: [] for t in ids}
    for k, (a, b, domain) in enumerate(m2m_edges):
        m2m_cols[a].append((f"m2m{k}", domain))
        m2m_cols[b].append((f"m2m{k}", domain))

    for t in ids:
        rows = n_rows[t]
        cols: list[Column] = [
            Column("id", np.arange(rows, dtype=np.int64), is_key=True)
        ]
        for parent in parents_of[t]:
            fanout = _frange(rng, cfg.fanout_skew)
            parent_keys = np.arange(n_rows[parent], dtype=np.int64)
            cols.append(
                Column(f"fk_t{parent}", fk_column(rows, parent_keys, fanout, rng))
            )
        for cname, domain in m2m_cols[t]:
            skew = _frange(rng, cfg.skew)
            cols.append(Column(cname, zipf_column(rows, domain, skew, rng)))
        prev_values: np.ndarray | None = None
        for a in range(n_attrs[t]):
            domain = _irange(rng, cfg.domain)
            roll = rng.random()
            if roll < cfg.mixture_rate:
                modes = [
                    (1.0, _frange(rng, (0.0, 100.0)), _frange(rng, (2.0, 15.0)))
                    for _ in range(int(rng.integers(1, 4)))
                ]
                values = np.round(mixture_column(rows, modes, rng), 3)
            elif (
                prev_values is not None
                and roll < cfg.mixture_rate + cfg.correlated_rate
            ):
                driver = prev_values.astype(np.int64, copy=False)
                values = correlated_column(
                    np.maximum(driver, 0), domain, _frange(rng, (0.4, 0.95)), rng
                )
            elif rng.random() < 0.5:
                values = zipf_column(rows, domain, _frange(rng, cfg.skew), rng)
            else:
                values = uniform_int_column(rows, 0, domain - 1, rng)
            if values.dtype.kind == "i":
                prev_values = values
            cols.append(Column(f"a{a}", values))
        tables.append(Table(f"t{t}", cols))

    for parent, child in pk_edges:
        joins.append(JoinEdge(f"t{child}", f"fk_t{parent}", f"t{parent}", "id"))
    for k, (a, b, _domain) in enumerate(m2m_edges):
        joins.append(JoinEdge(f"t{a}", f"m2m{k}", f"t{b}", f"m2m{k}"))

    return Database(name, tables, joins)


def schema_family(
    n: int,
    *,
    seed: int = 0,
    config: SchemaGenConfig | None = None,
) -> list[Database]:
    """``n`` databases from one family seed (member i uses ``seed*1000+i``
    -- disjoint from other families' member seeds for any base < 1000)."""
    if n < 1:
        raise ConfigError("need at least one schema")
    return [
        generate_database(seed * 1000 + i, config, name=f"gen{i:02d}") for i in range(n)
    ]


def database_fingerprint(db: Database) -> str:
    """Deterministic 16-hex identity over the full schema *and* data.

    Hashes table names, column names, dtypes, key flags, every column's
    raw bytes, and the normalized join-edge list -- so two databases
    fingerprint equal iff they are byte-identical, across processes.
    """
    h = hashlib.sha256()
    h.update(db.name.encode())
    for tname in sorted(db.tables):
        table = db.tables[tname]
        h.update(f"|table:{tname}:{table.n_rows}".encode())
        for cname in table.column_names:
            col = table.column(cname)
            h.update(
                f"|col:{cname}:{col.values.dtype.str}:{int(col.is_key)}".encode()
            )
            h.update(np.ascontiguousarray(col.values).tobytes())
    for e in sorted(
        db.joins,
        key=lambda e: (e.left_table, e.left_column, e.right_table, e.right_column),
    ):
        h.update(
            f"|join:{e.left_table}.{e.left_column}={e.right_table}.{e.right_column}".encode()
        )
    return h.hexdigest()[:16]


def topology_summary(db: Database) -> dict:
    """Structural profile of a database's join graph.

    Reports table/edge counts, connected components (isolated tables are
    size-1 components), the maximum degree, and whether any edge is
    non-PK-FK (neither endpoint a key column) -- the coverage axes the
    determinism tests assert over a family.
    """
    names = db.table_names
    seen: set[str] = set()
    components: list[int] = []
    for start in names:
        if start in seen:
            continue
        stack, comp = [start], 0
        seen.add(start)
        while stack:
            t = stack.pop()
            comp += 1
            for nb in sorted(db.neighbors(t)):
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        components.append(comp)
    degree = {t: len(db.edges_for(t)) for t in names}
    non_pk_fk = sum(
        1
        for e in db.joins
        if not db.table(e.left_table).column(e.left_column).is_key
        and not db.table(e.right_table).column(e.right_column).is_key
    )
    return {
        "n_tables": len(names),
        "n_edges": len(db.joins),
        "components": sorted(components, reverse=True),
        "max_degree": max(degree.values()) if degree else 0,
        "non_pk_fk_edges": non_pk_fk,
        "total_rows": db.total_rows(),
    }
