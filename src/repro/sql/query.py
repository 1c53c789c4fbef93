"""Query intermediate representation for SPJ COUNT queries.

A :class:`Query` is a connected set of tables, a list of equi-join
conditions, and a conjunction of single-column predicates.  This matches the
query class every surveyed estimator / optimizer handles (MSCN, Naru, Bao,
Lero, ... all operate on exactly this class).
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.sql.joingraph import join_graph

__all__ = [
    "Op",
    "ColumnRef",
    "Predicate",
    "OrPredicate",
    "Join",
    "Query",
    "query_hash",
]


def hash_once(self) -> int:
    """``__hash__`` of a frozen value dataclass: the field-tuple hash
    ``@dataclass`` generates, memoized outside the fields.  Queries (and
    the joins and predicates in their field tuples) and plan nodes key
    every memo and per-node dict, and the generated hash walks the whole
    value on each lookup.  Opt in with
    ``__hash__ = hash_once`` in the class body (the decorator replaces an
    inherited one) beside ``__getstate__ = state_without_hash``.
    """
    state = self.__dict__
    h = state.get("_hash")
    if h is None:
        h = hash(tuple(map(state.__getitem__, self.__dataclass_fields__)))
        state["_hash"] = h
    return h


def state_without_hash(self) -> dict:
    """``__getstate__`` beside :func:`hash_once`: all but ``_hash``.  ``str``
    hashes are salted per process, so the memo must not travel in a pickle
    (``deepcopy`` shares the protocol and recomputes)."""
    state = self.__dict__.copy()
    state.pop("_hash", None)
    return state


def str_once(render):
    """``__str__`` of a frozen value dataclass, memoized outside the fields
    like :func:`hash_once`.  Every ``Query`` sorts its joins and predicates
    by their text, and ``cache_key`` renders them again; a plan node's
    ``signature`` (its ``__str__`` too) is rendered by every dedup and
    every learned-vs-native comparison of its plan.
    The text is the same in every process, so it may travel in a pickle;
    ``dataclasses.replace`` builds a new instance, which renders afresh."""

    def __str__(self) -> str:
        state = self.__dict__
        text = state.get("_str")
        if text is None:
            text = state["_str"] = render(self)
        return text

    return __str__


class Op(enum.Enum):
    """Comparison operators supported in predicates."""

    EQ = "="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    BETWEEN = "between"
    IN = "in"
    OR = "or"  # marker op carried by OrPredicate

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return self.value


@dataclass(frozen=True, order=True)
class ColumnRef:
    """Reference to ``table.column``."""

    table: str
    column: str

    def __str__(self) -> str:
        return f"{self.table}.{self.column}"


@dataclass(frozen=True)
class Predicate:
    """A single-column filter ``table.column <op> value``.

    ``value`` is a float for comparison ops, a ``(lo, hi)`` tuple for
    BETWEEN (inclusive on both ends) and a frozenset of floats for IN.
    """

    column: ColumnRef
    op: Op
    value: float | tuple[float, float] | frozenset[float]

    def __post_init__(self) -> None:
        if self.op is Op.BETWEEN:
            if not (isinstance(self.value, tuple) and len(self.value) == 2):
                raise ValueError("BETWEEN needs a (lo, hi) tuple")
            lo, hi = self.value
            if lo > hi:
                raise ValueError(f"BETWEEN range is empty: ({lo}, {hi})")
        elif self.op is Op.IN:
            if not isinstance(self.value, frozenset):
                object.__setattr__(self, "value", frozenset(self.value))
            if not self.value:
                raise ValueError("IN list must be non-empty")
        else:
            if not isinstance(self.value, (int, float)):
                raise ValueError(f"{self.op} needs a scalar value")

    __hash__ = hash_once
    __getstate__ = state_without_hash

    def evaluate(self, values: np.ndarray) -> np.ndarray:
        """Boolean mask of rows satisfying the predicate."""
        if self.op is Op.EQ:
            return values == self.value
        if self.op is Op.LT:
            return values < self.value
        if self.op is Op.LE:
            return values <= self.value
        if self.op is Op.GT:
            return values > self.value
        if self.op is Op.GE:
            return values >= self.value
        if self.op is Op.BETWEEN:
            lo, hi = self.value  # type: ignore[misc]
            return (values >= lo) & (values <= hi)
        if self.op is Op.IN:
            return np.isin(values, list(self.value))  # type: ignore[arg-type]
        raise AssertionError(f"unhandled op {self.op}")

    def to_range(self) -> tuple[float, float]:
        """Closed-interval *hull* ``[lo, hi]``, for featurization only.

        Strict ``<``/``>`` are approximated by an epsilon shift, which is
        fine as a model feature but wrong as an estimation boundary (the
        epsilon vanishes for values near 1e9 and misrepresents integer
        columns).  Estimation code must use :meth:`to_bounds`, which carries
        exact open/closed endpoint flags.  IN predicates return their hull;
        callers needing exact IN semantics must check ``op`` first.
        Open-ended sides are +/- inf.
        """
        if self.op is Op.EQ:
            v = float(self.value)  # type: ignore[arg-type]
            return (v, v)
        if self.op is Op.LT:
            return (-np.inf, float(self.value) - 1e-9)  # type: ignore[arg-type]
        if self.op is Op.LE:
            return (-np.inf, float(self.value))  # type: ignore[arg-type]
        if self.op is Op.GT:
            return (float(self.value) + 1e-9, np.inf)  # type: ignore[arg-type]
        if self.op is Op.GE:
            return (float(self.value), np.inf)  # type: ignore[arg-type]
        if self.op is Op.BETWEEN:
            lo, hi = self.value  # type: ignore[misc]
            return (float(lo), float(hi))
        values = sorted(self.value)  # type: ignore[arg-type]
        return (float(values[0]), float(values[-1]))

    def to_bounds(self) -> tuple[float, float, bool, bool]:
        """Exact interval as ``(lo, hi, lo_inclusive, hi_inclusive)``.

        Unlike :meth:`to_range` there is no epsilon hack: strict operators
        report an *open* endpoint at the literal itself, so estimators can
        exclude point masses sitting exactly on the boundary regardless of
        the literal's magnitude or the column's type.  IN predicates return
        their closed hull (check ``op`` for exact semantics).
        """
        if self.op is Op.EQ:
            v = float(self.value)  # type: ignore[arg-type]
            return (v, v, True, True)
        if self.op is Op.LT:
            return (-np.inf, float(self.value), True, False)  # type: ignore[arg-type]
        if self.op is Op.LE:
            return (-np.inf, float(self.value), True, True)  # type: ignore[arg-type]
        if self.op is Op.GT:
            return (float(self.value), np.inf, False, True)  # type: ignore[arg-type]
        if self.op is Op.GE:
            return (float(self.value), np.inf, True, True)  # type: ignore[arg-type]
        if self.op is Op.BETWEEN:
            lo, hi = self.value  # type: ignore[misc]
            return (float(lo), float(hi), True, True)
        values = sorted(self.value)  # type: ignore[arg-type]
        return (float(values[0]), float(values[-1]), True, True)

    @str_once
    def __str__(self) -> str:
        if self.op is Op.BETWEEN:
            lo, hi = self.value  # type: ignore[misc]
            return f"{self.column} BETWEEN {lo} AND {hi}"
        if self.op is Op.IN:
            vals = ", ".join(str(v) for v in sorted(self.value))  # type: ignore[arg-type]
            return f"{self.column} IN ({vals})"
        return f"{self.column} {self.op.value} {self.value}"


@dataclass(frozen=True)
class OrPredicate:
    """Disjunction of simple predicates over one column (Mueller et al. [42]).

    Represents ``c < 5 OR c BETWEEN 10 AND 12 OR ...`` -- the mixed
    conjunctive/disjunctive predicate class whose featurization [42]
    studies.  All parts must reference the same column; a disjunction of
    equality parts should be written as an IN predicate instead (it is
    semantically identical and estimators handle IN natively).
    """

    column: ColumnRef
    parts: tuple[Predicate, ...]

    def __post_init__(self) -> None:
        if len(self.parts) < 2:
            raise ValueError("OR needs at least two parts")
        for p in self.parts:
            if not isinstance(p, Predicate):
                raise ValueError("OR parts must be simple predicates")
            if p.column != self.column:
                raise ValueError(
                    f"OR part {p} references {p.column}, expected {self.column}"
                )
        # Canonical part order for stable hashing.
        object.__setattr__(self, "parts", tuple(sorted(self.parts, key=str)))

    @property
    def op(self) -> Op:
        return Op.OR

    def evaluate(self, values: np.ndarray) -> np.ndarray:
        mask = self.parts[0].evaluate(values)
        for p in self.parts[1:]:
            mask = mask | p.evaluate(values)
        return mask

    def to_range(self) -> tuple[float, float]:
        """Hull over the parts (callers needing exact semantics check op)."""
        lows, highs = zip(*(p.to_range() for p in self.parts))
        return (min(lows), max(highs))

    def __str__(self) -> str:
        return "(" + " OR ".join(str(p) for p in self.parts) + ")"


@dataclass(frozen=True)
class Join:
    """Equi-join condition ``left = right``."""

    left: ColumnRef
    right: ColumnRef

    __hash__ = hash_once
    __getstate__ = state_without_hash

    def normalized(self) -> "Join":
        if self.left <= self.right:
            return self
        return Join(self.right, self.left)

    @str_once
    def __str__(self) -> str:
        return f"{self.left} = {self.right}"


@dataclass(frozen=True)
class Query:
    """An SPJ COUNT(*) query: tables, equi-joins and conjunctive filters."""

    tables: tuple[str, ...]
    joins: tuple[Join, ...] = ()
    predicates: tuple[Predicate, ...] = ()

    def __post_init__(self) -> None:
        if not self.tables:
            raise ValueError("query must reference at least one table")
        if len(set(self.tables)) != len(self.tables):
            raise ValueError("duplicate tables (aliases are not supported)")
        tset = set(self.tables)
        for j in self.joins:
            if j.left.table not in tset or j.right.table not in tset:
                raise ValueError(f"join {j} references a table outside FROM")
            if j.left.table == j.right.table:
                raise ValueError(f"self-join not supported: {j}")
        for p in self.predicates:
            if p.column.table not in tset:
                raise ValueError(f"predicate {p} references a table outside FROM")
        # Canonicalize ordering for stable hashing / featurization.
        object.__setattr__(self, "tables", tuple(sorted(self.tables)))
        object.__setattr__(
            self,
            "joins",
            tuple(sorted((j.normalized() for j in self.joins), key=str)),
        )
        object.__setattr__(
            self, "predicates", tuple(sorted(self.predicates, key=str))
        )

    @property
    def n_tables(self) -> int:
        return len(self.tables)

    # Queries are immutable, so derived views (per-table predicate lists,
    # the join adjacency, the canonical SQL text, sub-queries, the hash, the
    # compiled join graph) are computed once and memoized on the instance.  The planner's inner loop
    # and the executor ask for these repeatedly -- DP enumeration alone calls
    # ``predicates_on`` O(2^n) times per query -- which made the previous
    # linear re-scans a measurable cost.  The memo attributes live outside
    # the dataclass fields, so equality/hashing are unaffected.

    __hash__ = hash_once
    __getstate__ = state_without_hash

    def predicates_on(self, table: str) -> tuple[Predicate, ...]:
        cache = self.__dict__.get("_preds_on")
        if cache is None:
            cache = {t: [] for t in self.tables}
            for p in self.predicates:
                cache[p.column.table].append(p)
            cache = {t: tuple(ps) for t, ps in cache.items()}
            object.__setattr__(self, "_preds_on", cache)
        return cache[table]

    def joins_on(self, table: str) -> tuple[Join, ...]:
        cache = self.__dict__.get("_joins_on")
        if cache is None:
            cache = {t: [] for t in self.tables}
            for j in self.joins:
                cache[j.left.table].append(j)
                cache[j.right.table].append(j)
            cache = {t: tuple(js) for t, js in cache.items()}
            object.__setattr__(self, "_joins_on", cache)
        return cache[table]

    def join_adjacency(self) -> dict[str, frozenset[str]]:
        """Table -> joined-neighbor-tables adjacency of the join graph."""
        adj = self.__dict__.get("_adjacency")
        if adj is None:
            sets: dict[str, set[str]] = {t: set() for t in self.tables}
            for j in self.joins:
                sets[j.left.table].add(j.right.table)
                sets[j.right.table].add(j.left.table)
            adj = {t: frozenset(s) for t, s in sets.items()}
            object.__setattr__(self, "_adjacency", adj)
        return adj

    def subquery(self, tables: Iterable[str]) -> "Query":
        """Restrict to the given tables, keeping internal joins/predicates.

        Used to enumerate the sub-queries the cardinality estimator is asked
        about during plan costing.  Results are memoized per table set: the
        enumerator and the coster ask for the same sub-queries many times
        per planning.
        """
        keep = frozenset(tables)
        cache = self.__dict__.get("_subqueries")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_subqueries", cache)
        hit = cache.get(keep)
        if hit is None:
            hit = cache[keep] = self.restrict(keep)
        return hit

    def restrict(self, tables: Iterable[str]) -> "Query":
        """:meth:`subquery` without the memo: a fresh restriction that
        nothing on this query keeps alive.  Plan execution counts every node
        of a served query once, so memoizing those would only leave them
        behind for the life of the query."""
        keep = frozenset(tables)
        # A restriction of a canonical query is canonical -- a subsequence of
        # sorted, validated members is sorted and valid -- so the fields are
        # set directly instead of re-validating and re-sorting by ``str``.
        # Its tables and joins depend on the join graph alone: the compiled
        # graph hands out the tuples every query of this shape shares, and
        # the restriction's own graph with them.
        tables, joins, graph = join_graph(self).restriction(keep)
        sub = object.__new__(Query)
        sub.__dict__.update(
            tables=tables,
            joins=joins,
            predicates=tuple(p for p in self.predicates if p.column.table in keep),
            _graph=graph,
        )
        return sub

    def connected_subqueries(self) -> list["Query"]:
        """Every connected sub-query, sizes ascending and in
        ``itertools.combinations`` order over ``tables`` within a size.

        The subsets come from the query's compiled
        :class:`~repro.sql.joingraph.JoinGraph`, the one subset enumeration:
        the DP kernel, LEON's top-k DP and the cardinality-injection
        interface all walk exactly these, in this order.  Only connected
        restrictions enter the ``subquery`` memo.
        """
        return [self.subquery(s) for s in join_graph(self).subsets]

    def is_connected(self) -> bool:
        """True when the join graph over the query's tables is connected."""
        return join_graph(self).connected

    @property
    def template_key(self) -> tuple:
        """Literal-free query identity: ``(tables, joins, shapes)``.

        Two queries that differ only in predicate literals (same tables,
        same joins, same predicated columns/operators, same IN arity) share
        a template key -- the prepared-statement identity the
        :class:`repro.optimizer.PlanCache` reuses compiled plans across.

        A predicate's shape is ``(table, column, op, arity)``, the arity
        being an IN list's length (0 for every other operator); an OR's is
        ``(table, column, "or", parts)`` with its parts' shapes sorted.  The
        shapes are sorted *as shapes*: ``__post_init__`` orders predicates
        by their literal-bearing text, so two bindings of one template can
        disagree on predicate order.  ``tables`` and ``joins`` are the
        query's own (canonically sorted) fields.  Nothing is rendered: a
        plan-cache hit builds one tuple.
        ``query_hash`` is untouched -- canary splits, dedup and audit
        sampling still key on the exact query.
        """
        key = self.__dict__.get("_template_key")
        if key is None:
            key = (
                self.tables,
                self.joins,
                tuple(sorted(map(_predicate_shape, self.predicates))),
            )
            object.__setattr__(self, "_template_key", key)
        return key

    @property
    def cache_key(self) -> str:
        """Canonical query identity as text: the memoized ``to_sql``.

        ``__post_init__`` sorts tables, joins and predicates, so two queries
        over the same tables with the same joins and predicates -- however
        they were constructed -- render identically.  :func:`query_hash`
        digests it.  Planning never renders it: the cross-plan
        :class:`repro.optimizer.CardinalityCache` and the exact executor's
        memo key a sub-query by its field tuple instead.
        """
        key = self.__dict__.get("_cache_key")
        if key is None:
            key = self.to_sql()
            object.__setattr__(self, "_cache_key", key)
        return key

    def to_sql(self) -> str:
        """Render as ``SELECT COUNT(*) FROM ... WHERE ...`` text."""
        where = [str(j) for j in self.joins] + [str(p) for p in self.predicates]
        sql = f"SELECT COUNT(*) FROM {', '.join(self.tables)}"
        if where:
            sql += " WHERE " + " AND ".join(where)
        return sql

    def __str__(self) -> str:
        return self.to_sql()


def _predicate_shape(pred: Predicate | OrPredicate) -> tuple:
    """A predicate without its literals: what :attr:`Query.template_key`
    keeps of it.  BETWEEN is its operator, IN keeps its arity, and an OR's
    parts are shaped individually and sorted, so part order never depends
    on the literals either."""
    column = pred.column
    if pred.op is Op.OR:
        parts = tuple(sorted(map(_predicate_shape, pred.parts)))
        return (column.table, column.column, Op.OR.value, parts)
    arity = len(pred.value) if pred.op is Op.IN else 0  # type: ignore[arg-type]
    return (column.table, column.column, pred.op.value, arity)


def query_hash(query: Query) -> str:
    """Stable 12-hex-digit identity of a query's canonical text.

    The one query-hashing scheme in the repository, for identities that
    must agree across processes: the deployment manager's canary split,
    the serving traces, the experience store's dedup key and the audit's
    violation records key by this value.  Because it hashes
    :attr:`Query.cache_key` (the canonicalized SQL text), two equivalent
    queries constructed with different member orderings hash identically.  Memoized per instance,
    like ``cache_key`` itself.  The cardinality cache does not use it: it
    lives in one process and keys a sub-query by ``(tables, joins,
    predicates)``, so planning renders and digests no sub-query's SQL.
    """
    h = query.__dict__.get("_query_hash")
    if h is None:
        h = hashlib.sha256(query.cache_key.encode()).hexdigest()[:12]
        object.__setattr__(query, "_query_hash", h)
    return h
