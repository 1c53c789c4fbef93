"""SQL subset: query IR, parser and workload generators.

The whole learned-query-optimizer literature surveyed by the tutorial works
on select-project-join (SPJ) COUNT queries: conjunctions of range/equality
predicates over a connected set of equi-joined tables.  This package defines
that query representation (:class:`repro.sql.query.Query`), a parser for a
``SELECT COUNT(*) FROM ... WHERE ...`` text form, and generators producing
JOB-style and CEB-style workloads over any :class:`repro.storage.Database`.
"""

from repro.sql.query import (
    ColumnRef,
    Join,
    Op,
    OrPredicate,
    Predicate,
    Query,
)
from repro.sql.parser import parse_query, SQLSyntaxError
from repro.sql.generator import WorkloadGenerator
from repro.sql.transforms import TRANSFORM_REGISTRY, exact_count

__all__ = [
    "ColumnRef",
    "Join",
    "Op",
    "OrPredicate",
    "Predicate",
    "Query",
    "parse_query",
    "SQLSyntaxError",
    "WorkloadGenerator",
    "TRANSFORM_REGISTRY",
    "exact_count",
]
