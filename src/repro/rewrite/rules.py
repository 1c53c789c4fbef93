"""The rewrite rule library: result-preserving transforms worth money.

Unlike the metamorphic transforms in :mod:`repro.sql.transforms` (designed
to be *obviously* count-preserving so they can test the executor), these
rules exist to make queries cheaper, and each one's preservation argument
is sharper:

- **predicate_pushdown** -- equi-joins make join-equivalent columns equal
  in every result row, so a filter on one side of a join class holds on
  every member; propagating it to the other scans shrinks join inputs
  without changing the result.
- **in_to_join** -- ``col IN (...)`` equals an equi-join against a
  single-column relation of the distinct literals (unique values column:
  exactly one partner per matching row, zero otherwise); see
  :mod:`repro.rewrite.values`.
- **or_to_union** -- a disjunction of *pairwise-disjoint* parts splits into
  one branch query per part, with COUNT(original) = sum of branch counts.
  Disjointness is checked exactly (set logic for EQ/IN, open/closed
  interval logic via ``to_bounds`` for ranges); overlapping parts never
  produce a candidate.
- **drop_redundant** -- a conjunct implied by another conjunct on the same
  column (``x <= 3 AND x <= 7``) can be dropped: ``p AND q == p`` whenever
  ``p`` implies ``q``.  Exact duplicates are a special case.
- **merge_ranges** -- several closed-interval conjuncts on one column
  (GE / LE / BETWEEN) intersect to a single BETWEEN.  Strict GT / LT
  conjuncts are never folded in (the IR's BETWEEN is inclusive; folding an
  open endpoint into a closed one would widen the predicate).

Every applicable rule emits a :class:`RewriteCandidate` carrying
provenance; nothing here mutates the input query.  Candidates are claims,
not facts -- the :class:`~repro.rewrite.validate.RewriteValidator` holds a
zero-tolerance gate in front of the leaderboard.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sql.query import ColumnRef, Op, OrPredicate, Predicate, Query
from repro.storage.catalog import Database

__all__ = [
    "RewriteCandidate",
    "RewriteRule",
    "REWRITE_RULES",
    "PredicatePushdown",
    "InToJoin",
    "OrToUnion",
    "DropRedundant",
    "MergeRanges",
]


@dataclass(frozen=True)
class RewriteCandidate:
    """One proposed rewrite, with provenance.

    ``queries`` is usually a single rewritten query; OR -> UNION emits one
    query per disjoint branch, in which case COUNT(original) must equal the
    *sum* of the branch counts and the candidate is not servable as a
    single plan (``servable`` is False).
    ``values_tables`` names any literal relations the rewrite depends on
    (attached to the database by the :class:`~repro.rewrite.values.
    ValuesCatalog`).
    """

    rule: str
    original: Query
    queries: tuple[Query, ...]
    note: str = ""
    values_tables: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.queries:
            raise ValueError("candidate needs at least one rewritten query")

    @property
    def servable(self) -> bool:
        return len(self.queries) == 1

    @property
    def rewritten(self) -> Query:
        if not self.servable:
            raise ValueError(f"{self.rule} candidate is a multi-query union")
        return self.queries[0]


# -- exact predicate algebra ------------------------------------------------------


def _finite_values(pred: Predicate) -> list[float] | None:
    """The predicate's satisfying set when finite (EQ / IN), else None."""
    if pred.op is Op.EQ:
        return [float(pred.value)]  # type: ignore[arg-type]
    if pred.op is Op.IN:
        return sorted(float(v) for v in pred.value)  # type: ignore[arg-type]
    return None


def _is_interval(pred: Predicate) -> bool:
    return pred.op in (Op.LT, Op.LE, Op.GT, Op.GE, Op.BETWEEN)


def predicates_disjoint(p: Predicate, q: Predicate) -> bool:
    """Exact: no value can satisfy both ``p`` and ``q``.

    Finite sets are checked by evaluation; interval pairs via the exact
    open/closed bounds.  Returns False (not disjoint) whenever it cannot
    prove disjointness.
    """
    fp, fq = _finite_values(p), _finite_values(q)
    if fp is not None:
        return not bool(q.evaluate(np.asarray(fp, dtype=np.float64)).any())
    if fq is not None:
        return not bool(p.evaluate(np.asarray(fq, dtype=np.float64)).any())
    if not (_is_interval(p) and _is_interval(q)):
        return False
    lo1, hi1, lo1_inc, hi1_inc = p.to_bounds()
    lo2, hi2, lo2_inc, hi2_inc = q.to_bounds()
    if hi1 < lo2 or hi2 < lo1:
        return True
    if hi1 == lo2:
        return not (hi1_inc and lo2_inc)
    if hi2 == lo1:
        return not (hi2_inc and lo1_inc)
    return False


def predicate_implies(p: Predicate, q: Predicate) -> bool:
    """Exact: every value satisfying ``p`` satisfies ``q``.

    Conservative -- returns False whenever implication cannot be proven.
    """
    fp = _finite_values(p)
    if fp is not None:
        return bool(q.evaluate(np.asarray(fp, dtype=np.float64)).all())
    if not (_is_interval(p) and _is_interval(q)):
        return False
    if _finite_values(q) is not None:
        # An interval has uncountable support; it cannot sit inside a
        # finite set (degenerate intervals are rendered by EQ, not ranges).
        return False
    lo_p, hi_p, lo_p_inc, hi_p_inc = p.to_bounds()
    lo_q, hi_q, lo_q_inc, hi_q_inc = q.to_bounds()
    lo_ok = lo_p > lo_q or (lo_p == lo_q and (lo_q_inc or not lo_p_inc))
    hi_ok = hi_p < hi_q or (hi_p == hi_q and (hi_q_inc or not hi_p_inc))
    return lo_ok and hi_ok


class _UnionFind:
    """Union-find over join-equivalent column refs."""

    def __init__(self) -> None:
        self.parent: dict[ColumnRef, ColumnRef] = {}

    def find(self, x: ColumnRef) -> ColumnRef:
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: ColumnRef, b: ColumnRef) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # Deterministic root: smaller ref wins.
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra

    def classes(self) -> dict[ColumnRef, list[ColumnRef]]:
        out: dict[ColumnRef, list[ColumnRef]] = {}
        for ref in self.parent:
            out.setdefault(self.find(ref), []).append(ref)
        return {root: sorted(members) for root, members in out.items()}


def _rebase(pred, target: ColumnRef):
    """The same filter expressed on a join-equivalent column."""
    if isinstance(pred, OrPredicate):
        return OrPredicate(
            target,
            tuple(Predicate(target, part.op, part.value) for part in pred.parts),
        )
    return Predicate(target, pred.op, pred.value)


# -- the rules --------------------------------------------------------------------


@dataclass
class RewriteRule:
    """Base: a named rewrite with ``apply(db, query) -> candidate | None``."""

    name: str = field(default="", init=False)

    def apply(
        self, db: Database, query: Query, *, catalog=None
    ) -> RewriteCandidate | None:
        raise NotImplementedError


class PredicatePushdown(RewriteRule):
    """Propagate filters across equi-join equivalence classes."""

    def __init__(self) -> None:
        self.name = "predicate_pushdown"

    def apply(
        self, db: Database, query: Query, *, catalog=None
    ) -> RewriteCandidate | None:
        if not query.joins:
            return None
        uf = _UnionFind()
        for j in query.joins:
            uf.union(j.left, j.right)
        classes = uf.classes()
        existing = set(query.predicates)
        derived: list = []
        for pred in query.predicates:
            if pred.column not in uf.parent:
                continue
            root = uf.find(pred.column)
            for member in classes[root]:
                if member == pred.column:
                    continue
                new = _rebase(pred, member)
                if new not in existing:
                    existing.add(new)
                    derived.append(new)
        if not derived:
            return None
        rewritten = Query(
            query.tables, query.joins, query.predicates + tuple(derived)
        )
        return RewriteCandidate(
            rule=self.name,
            original=query,
            queries=(rewritten,),
            note="pushed " + "; ".join(str(p) for p in sorted(derived, key=str)),
        )


class InToJoin(RewriteRule):
    """Rewrite the widest IN list as a join against a literals relation."""

    min_width = 4  # narrower IN lists stay predicates

    def __init__(self) -> None:
        self.name = "in_to_join"

    def apply(
        self, db: Database, query: Query, *, catalog=None
    ) -> RewriteCandidate | None:
        if catalog is None:
            return None
        best = None
        for pred in query.predicates:
            if isinstance(pred, OrPredicate) or pred.op is not Op.IN:
                continue
            if len(pred.value) < self.min_width:  # type: ignore[arg-type]
                continue
            key = (-len(pred.value), str(pred))  # type: ignore[arg-type]
            if best is None or key < best[0]:
                best = (key, pred)
        if best is None:
            return None
        pred = best[1]
        attached = catalog.attach(pred.column, pred.value)
        if attached is None:
            return None
        vals_name, join = attached
        if vals_name in query.tables:
            return None
        rest = tuple(p for p in query.predicates if p != pred)
        rewritten = Query(
            query.tables + (vals_name,), query.joins + (join,), rest
        )
        return RewriteCandidate(
            rule=self.name,
            original=query,
            queries=(rewritten,),
            note=f"{pred} -> join {vals_name} "
            f"({len(pred.value)} literals)",  # type: ignore[arg-type]
            values_tables=(vals_name,),
        )


class OrToUnion(RewriteRule):
    """Split a provably disjoint disjunction into per-branch queries."""

    def __init__(self) -> None:
        self.name = "or_to_union"

    def apply(
        self, db: Database, query: Query, *, catalog=None
    ) -> RewriteCandidate | None:
        for i, pred in enumerate(query.predicates):
            if not isinstance(pred, OrPredicate):
                continue
            parts = pred.parts
            if not all(
                predicates_disjoint(parts[a], parts[b])
                for a in range(len(parts))
                for b in range(a + 1, len(parts))
            ):
                continue
            rest = query.predicates[:i] + query.predicates[i + 1 :]
            branches = tuple(
                Query(query.tables, query.joins, rest + (part,))
                for part in parts
            )
            return RewriteCandidate(
                rule=self.name,
                original=query,
                queries=branches,
                note=f"{len(parts)} disjoint branches over {pred.column}",
            )
        return None


class DropRedundant(RewriteRule):
    """Eliminate conjuncts implied by another conjunct on the same column."""

    def __init__(self) -> None:
        self.name = "drop_redundant"

    def apply(
        self, db: Database, query: Query, *, catalog=None
    ) -> RewriteCandidate | None:
        preds = list(query.predicates)
        keep: list = []
        dropped: list = []
        seen: set = set()
        for q in preds:
            if q in seen:
                dropped.append(q)  # exact duplicate
                continue
            seen.add(q)
            redundant = False
            if not isinstance(q, OrPredicate):
                for p in preds:
                    if p is q or isinstance(p, OrPredicate):
                        continue
                    if p.column != q.column or p == q:
                        continue
                    if predicate_implies(p, q) and not (
                        predicate_implies(q, p) and str(p) > str(q)
                    ):
                        # p subsumes q; for mutually-equivalent pairs keep
                        # the lexicographically-first of the two.
                        redundant = True
                        break
            if redundant:
                dropped.append(q)
            else:
                keep.append(q)
        if not dropped:
            return None
        rewritten = Query(query.tables, query.joins, tuple(keep))
        return RewriteCandidate(
            rule=self.name,
            original=query,
            queries=(rewritten,),
            note="dropped " + "; ".join(str(p) for p in sorted(dropped, key=str)),
        )


class MergeRanges(RewriteRule):
    """Intersect closed-interval conjuncts on one column into one BETWEEN."""

    _CLOSED_OPS = (Op.GE, Op.LE, Op.BETWEEN)

    def __init__(self) -> None:
        self.name = "merge_ranges"

    def apply(
        self, db: Database, query: Query, *, catalog=None
    ) -> RewriteCandidate | None:
        by_column: dict[ColumnRef, list[Predicate]] = {}
        for pred in query.predicates:
            if isinstance(pred, OrPredicate):
                continue
            if pred.op in self._CLOSED_OPS:
                by_column.setdefault(pred.column, []).append(pred)
        merged: dict[ColumnRef, Predicate] = {}
        for column, group in sorted(by_column.items()):
            if len(group) < 2:
                continue
            lo, hi = -np.inf, np.inf
            for pred in group:
                p_lo, p_hi, _, _ = pred.to_bounds()
                lo, hi = max(lo, p_lo), min(hi, p_hi)
            if not (np.isfinite(lo) and np.isfinite(hi)):
                continue  # one-sided; subsumption handles those
            if lo > hi:
                continue  # empty intersection -- the IR cannot express FALSE
            merged[column] = Predicate(
                column, Op.BETWEEN, (float(lo), float(hi))
            )
        if not merged:
            return None
        out: list = []
        replaced: set = set()
        for pred in query.predicates:
            column = pred.column
            if (
                not isinstance(pred, OrPredicate)
                and column in merged
                and pred.op in self._CLOSED_OPS
            ):
                if column not in replaced:
                    out.append(merged[column])
                    replaced.add(column)
                continue
            out.append(pred)
        rewritten = Query(query.tables, query.joins, tuple(out))
        if rewritten.predicates == query.predicates:
            return None
        return RewriteCandidate(
            rule=self.name,
            original=query,
            queries=(rewritten,),
            note="merged "
            + "; ".join(str(merged[c]) for c in sorted(merged)),
        )


#: rule name -> rule instance, in canonical application order.
REWRITE_RULES: dict[str, RewriteRule] = {
    r.name: r
    for r in (
        PredicatePushdown(),
        InToJoin(),
        OrToUnion(),
        DropRedundant(),
        MergeRanges(),
    )
}
