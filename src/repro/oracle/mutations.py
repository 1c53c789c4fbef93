"""Seeded bug mutations for validating the oracle itself.

A correctness oracle that has never caught anything proves nothing.  Each
entry here is a named, reversible monkeypatch re-introducing a real bug
class -- including the exact bugs the satellite fixes removed (float64
count accumulation, missing equality domain check, degenerate-bucket
endpoint counting, the ``to_range`` epsilon hack) -- plus representative
breakages of every other layer the oracle guards: executor lookups, the
exact counter's cyclic core, predicate evaluation, estimator sanity and the
canonicalization/versioning contracts.

``benchmarks/bench_p5_oracle.py`` applies each mutation in isolation,
reruns the oracle and requires it to catch >= 90% of them; the context
managers restore every patched attribute on exit, so trials are
independent.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

import repro.engine.executor as executor_mod
from repro.cardest.base import BaseCardinalityEstimator
from repro.cardest.bounds import BoundSketchEstimator
from repro.optimizer.statistics import ColumnStats
from repro.optimizer.traditional import TraditionalCardinalityEstimator
from repro.sql.joingraph import join_graph
from repro.sql.query import Join, Op, Predicate, Query

__all__ = ["MUTATIONS", "mutation_names", "apply_mutation"]


@contextmanager
def _patched(obj, attr, replacement):
    original = getattr(obj, attr)
    setattr(obj, attr, replacement)
    try:
        yield
    finally:
        setattr(obj, attr, original)


# -- S1: float64 count accumulation ----------------------------------------------


@contextmanager
def tree_count_float64():
    """Message-passing sums/products accumulate in float64 again (rounds
    past 2**53)."""

    def group_sum(keys, weights, span):
        weights = (
            np.ones(keys.shape[0]) if weights is None else weights.astype(np.float64)
        )
        if keys.size == 0:
            return keys, weights
        uniq, inverse = np.unique(keys, return_inverse=True)
        sums = np.zeros(uniq.shape[0])
        np.add.at(sums, inverse, weights)
        return uniq, sums

    def weight_product(a, b):
        return a.astype(np.float64) * b.astype(np.float64)

    def weight_total(weights):
        return int(round(float(np.asarray(weights, dtype=np.float64).sum())))

    with _patched(executor_mod, "_group_sum", group_sum), _patched(
        executor_mod, "_weight_product", weight_product
    ), _patched(executor_mod, "_weight_total", weight_total):
        yield


# -- executor layer --------------------------------------------------------------


@contextmanager
def lookup_missing_counts_one():
    """Join keys with no partner count as one match instead of zero."""

    def lookup(uniq, sums, keys):
        if uniq is None:  # direct-address table: an absent key's slot is 0
            found = sums[keys]
            return np.where(found == 0, 1, found)
        if uniq.size == 0:
            return np.ones(keys.shape[0], dtype=np.int64)
        pos = np.clip(np.searchsorted(uniq, keys), 0, uniq.shape[0] - 1)
        return np.where(uniq[pos] == keys, sums[pos], 1)

    with _patched(executor_mod, "_lookup", lookup):
        yield


@contextmanager
def materializer_drops_cycle_edge():
    """The exact counter forgets a cycle-closing join: a query with a
    cycle is counted with its last join dropped, when that leaves it
    connected."""

    def mutated(self, query):
        if len(query.joins) >= query.n_tables:
            pruned = Query(query.tables, query.joins[:-1], query.predicates)
            if join_graph(pruned).connected:
                return original(self, pruned)
        return original(self, query)

    original = executor_mod.CardinalityExecutor._count
    with _patched(executor_mod.CardinalityExecutor, "_count", mutated):
        yield


@contextmanager
def filter_drops_last_predicate():
    """Per-table filtering silently ignores one predicate."""

    def mutated(db, query, table):
        tbl = db.table(table)
        mask = np.ones(tbl.n_rows, dtype=bool)
        for pred in query.predicates_on(table)[:-1]:
            mask &= pred.evaluate(tbl.values(pred.column.column))
        return np.flatnonzero(mask)

    with _patched(executor_mod, "_filtered_indices", mutated):
        yield


# -- predicate semantics ---------------------------------------------------------


@contextmanager
def between_evaluates_exclusive():
    """BETWEEN drops its endpoints (strict instead of inclusive)."""

    original = Predicate.evaluate

    def mutated(self, values):
        if self.op is Op.BETWEEN:
            lo, hi = self.value
            return (values > lo) & (values < hi)
        return original(self, values)

    with _patched(Predicate, "evaluate", mutated):
        yield


# -- S2/S3/S4: selectivity bugs --------------------------------------------------


@contextmanager
def eq_ignores_domain():
    """Equality falls back to the non-MCV estimate for any literal, even
    outside the column's domain."""

    def mutated(self, value):
        if self.n_rows == 0:
            return 0.0
        hit = np.nonzero(self.mcv_values == value)[0]
        if hit.size:
            return float(self.mcv_freqs[hit[0]])
        n_non_mcv_distinct = max(self.n_distinct - self.mcv_values.shape[0], 1)
        return self.non_mcv_fraction / n_non_mcv_distinct

    with _patched(ColumnStats, "eq_selectivity", mutated):
        yield


@contextmanager
def range_counts_touching_degenerate():
    """Degenerate histogram buckets count whenever they touch the range,
    even on an excluded (open) endpoint."""

    def mutated(self, lo, hi, *, inclusive_lo=True, inclusive_hi=True):
        if self.n_rows == 0:
            return 0.0
        if lo > hi:
            return 0.0
        sel = 0.0
        if self.mcv_values.size:
            in_range = (self.mcv_values >= lo) & (self.mcv_values <= hi)
            sel += float(self.mcv_freqs[in_range].sum())
        bounds = self.histogram_bounds
        if bounds.size >= 2 and self.non_mcv_fraction > 0:
            n_bins = bounds.size - 1
            frac = 0.0
            for b in range(n_bins):
                b_lo, b_hi = bounds[b], bounds[b + 1]
                if b_hi < lo or b_lo > hi:
                    continue
                if b_hi == b_lo:
                    frac += 1.0
                    continue
                covered_lo = max(b_lo, lo)
                covered_hi = min(b_hi, hi)
                frac += max(covered_hi - covered_lo, 0.0) / (b_hi - b_lo)
            sel += (frac / n_bins) * self.non_mcv_fraction
        return min(max(sel, 0.0), 1.0)

    with _patched(ColumnStats, "range_selectivity", mutated):
        yield


@contextmanager
def to_bounds_epsilon_hack():
    """Strict comparisons shift the literal by 1e-9 and report closed
    bounds -- the old ``to_range`` behaviour (wrong for integers, vanishes
    near 1e9)."""

    original = Predicate.to_bounds

    def mutated(self):
        if self.op is Op.LT:
            return (-np.inf, float(self.value) - 1e-9, True, True)
        if self.op is Op.GT:
            return (float(self.value) + 1e-9, np.inf, True, True)
        return original(self)

    with _patched(Predicate, "to_bounds", mutated):
        yield


# -- estimator sanity ------------------------------------------------------------


@contextmanager
def estimate_negative():
    """The traditional estimator returns negated cardinalities."""

    original = TraditionalCardinalityEstimator.estimate

    def mutated(self, query):
        return -abs(original(self, query)) - 1.0

    with _patched(TraditionalCardinalityEstimator, "estimate", mutated):
        yield


@contextmanager
def estimate_nan():
    """The traditional estimator returns NaN for join queries."""

    original = TraditionalCardinalityEstimator.estimate

    def mutated(self, query):
        if query.n_tables > 1:
            return float("nan")
        return original(self, query)

    with _patched(TraditionalCardinalityEstimator, "estimate", mutated):
        yield


@contextmanager
def estimate_overscaled():
    """Estimates blow past the unfiltered cross-product bound."""

    original = TraditionalCardinalityEstimator.estimate

    def mutated(self, query):
        return original(self, query) * 1e12 + 1e12

    with _patched(TraditionalCardinalityEstimator, "estimate", mutated):
        yield


@contextmanager
def bound_undercounts():
    """The pessimistic bound estimators silently report an eighth of the
    certified bound -- a broken certificate that still *looks* like a
    plausible estimate (finite, positive, under the cross product)."""

    original = BoundSketchEstimator._estimate

    def mutated(self, query):
        return original(self, query) / 8.0

    with _patched(BoundSketchEstimator, "_estimate", mutated):
        yield


# -- canonicalization / versioning contracts -------------------------------------


@contextmanager
def join_normalize_identity():
    """Join sides are no longer canonicalized, so commuted joins hash
    differently."""

    with _patched(Join, "normalized", lambda self: self):
        yield


@contextmanager
def version_bump_dropped():
    """Refits and feedback no longer bump ``estimates_version``."""

    with _patched(
        BaseCardinalityEstimator,
        "_bump_estimates_version",
        lambda self: None,
    ):
        yield


#: name -> zero-arg context-manager factory applying the mutation
MUTATIONS = {
    "tree_count_float64": tree_count_float64,
    "lookup_missing_counts_one": lookup_missing_counts_one,
    "materializer_drops_cycle_edge": materializer_drops_cycle_edge,
    "filter_drops_last_predicate": filter_drops_last_predicate,
    "between_evaluates_exclusive": between_evaluates_exclusive,
    "eq_ignores_domain": eq_ignores_domain,
    "range_counts_touching_degenerate": range_counts_touching_degenerate,
    "to_bounds_epsilon_hack": to_bounds_epsilon_hack,
    "estimate_negative": estimate_negative,
    "estimate_nan": estimate_nan,
    "estimate_overscaled": estimate_overscaled,
    "bound_undercounts": bound_undercounts,
    "join_normalize_identity": join_normalize_identity,
    "version_bump_dropped": version_bump_dropped,
}


def mutation_names() -> list[str]:
    return list(MUTATIONS)


def apply_mutation(name: str):
    """Context manager applying the named mutation for its duration."""
    try:
        return MUTATIONS[name]()
    except KeyError:
        raise KeyError(
            f"unknown mutation {name!r}; available: {mutation_names()}"
        ) from None
