"""The per-arm DP planner, kept as the reference.

This is ``enumerate_dp`` with its ``_best_scan`` / ``_best_join`` driving
loop as it stood in ``repro/optimizer/planner.py`` before the arm-sweep
kernel: one full DP per hint set, a ``ScanNode`` / ``JoinNode`` built for
every improvement, a fresh ``Plan`` per arm.  The sweep kernel must return
``==`` plans, arm for arm, ties included; ``tests/test_arm_sweep.py``
asserts that and ``benchmarks/bench_p6_fastpath.py`` uses
:func:`reference_plan_arms` as the baseline.  Do not optimise this file.

The subset and partition loops are also kept on their own
(:func:`reference_connected_subsets`, :func:`reference_partitions`), with
the breadth-first connectivity test ``Query.is_connected`` ran before the
compiled join graph: ``tests/test_joingraph.py`` holds
:class:`repro.sql.joingraph.JoinGraph` to them, and nothing here reads
the graph it checks.
"""

from __future__ import annotations

from itertools import combinations

from repro.engine.plans import JoinNode, Plan, PlanNode, ScanMethod, ScanNode
from repro.optimizer.cost import PlanCoster
from repro.optimizer.hints import HintSet
from repro.sql.query import Join, Query

__all__ = [
    "reference_connected_subsets",
    "reference_enumerate_dp",
    "reference_partitions",
    "reference_plan_arms",
]


def _join_conditions_between(
    query: Query, left: frozenset[str], right: frozenset[str]
) -> tuple[Join, ...]:
    return tuple(
        j
        for j in query.joins
        if (j.left.table in left and j.right.table in right)
        or (j.left.table in right and j.right.table in left)
    )


def reference_is_connected(query: Query, tables: frozenset[str]) -> bool:
    """True when ``query``'s joins connect ``tables`` (a breadth-first walk
    over the joins inside the set)."""
    adj: dict[str, set[str]] = {t: set() for t in tables}
    for j in query.joins:
        if j.left.table in tables and j.right.table in tables:
            adj[j.left.table].add(j.right.table)
            adj[j.right.table].add(j.left.table)
    start = min(tables)
    seen, frontier = {start}, [start]
    while frontier:
        for nxt in adj[frontier.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen) == len(tables)


def reference_connected_subsets(query: Query) -> list[frozenset[str]]:
    """Every connected subset, sizes ascending and in ``combinations`` order
    over ``query.tables`` within a size."""
    return [
        frozenset(combo)
        for size in range(1, query.n_tables + 1)
        for combo in combinations(query.tables, size)
        if reference_is_connected(query, frozenset(combo))
    ]


def reference_partitions(
    query: Query, subset: frozenset[str], connected: set[frozenset[str]]
) -> list[tuple[frozenset[str], frozenset[str], tuple[Join, ...]]]:
    """The DP's partition loop: every split of ``subset`` into two halves in
    ``connected`` with a join between them, the left half holding the
    subset's first table, in the order the loop met them."""
    out = []
    members = sorted(subset)
    for r in range(1, len(subset)):
        for left_combo in combinations(members[1:], r - 1):
            left_set = frozenset((members[0],) + left_combo)
            right_set = subset - left_set
            if left_set not in connected or right_set not in connected:
                continue
            conditions = _join_conditions_between(query, left_set, right_set)
            if conditions:
                out.append((left_set, right_set, conditions))
    return out


def _best_scan(
    query: Query, table: str, coster: PlanCoster, hints: HintSet
) -> tuple[ScanNode, float]:
    """Cheapest allowed scan for one table."""
    preds = query.predicates_on(table)
    candidates = []
    for method in hints.scan_methods:
        if method is ScanMethod.INDEX and not preds:
            continue  # index scans need a driving predicate
        node = ScanNode(table=table, method=method, predicates=preds)
        candidates.append((node, coster.tagged_scan_cost(node, coster.planning_tag())))
    if not candidates:
        # Index-only hints on a predicate-less table: fall back to seq scan,
        # as real systems do rather than failing the query.
        node = ScanNode(table=table, method=ScanMethod.SEQ, predicates=preds)
        candidates.append((node, coster.tagged_scan_cost(node, coster.planning_tag())))
    return min(candidates, key=lambda c: c[1])


def _best_join(
    query: Query,
    left: tuple[PlanNode, float],
    right: tuple[PlanNode, float],
    conditions: tuple[Join, ...],
    coster: PlanCoster,
    hints: HintSet,
    card_of: dict[frozenset[str], float],
    *,
    allow_swap: bool = True,
) -> tuple[JoinNode, float] | None:
    """Cheapest allowed join combining the two sub-plans.

    ``allow_swap=False`` pins the orientation (needed by left-deep
    enumeration, where the inner/right side must stay a base relation).
    """
    best: tuple[JoinNode, float] | None = None
    out_card = card_of[left[0].tables | right[0].tables]
    orientations = ((left, right), (right, left)) if allow_swap else ((left, right),)
    for (a, ca), (b, cb) in orientations:
        for method in hints.join_methods:
            op_cost = coster.join_operator_cost(
                method, card_of[a.tables], card_of[b.tables], out_card, b
            )
            total = ca + cb + op_cost
            if best is None or total < best[1]:
                best = (JoinNode(a, b, method, conditions), total)
    return best


def reference_enumerate_dp(
    query: Query,
    coster: PlanCoster,
    hints: HintSet | None = None,
    *,
    left_deep_only: bool = False,
) -> Plan:
    """Optimal plan under the estimated cost model (DP over subsets)."""
    hints = hints if hints is not None else HintSet.default()
    tables = list(query.tables)
    n = len(tables)

    # Enumerate every connected subset up front and prime their estimated
    # cardinalities in one batched call: cache hits are answered directly
    # and the misses go through the estimator's ``estimate_batch`` as a
    # single featurization + forward pass instead of one call per subset.
    singles = [frozenset((t,)) for t in tables]
    by_size: dict[int, list[frozenset[str]]] = {}
    connected: list[frozenset[str]] = list(singles)
    for size in range(2, n + 1):
        sized: list[frozenset[str]] = []
        for combo in combinations(tables, size):
            subset = frozenset(combo)
            if reference_is_connected(query, subset):
                sized.append(subset)
        by_size[size] = sized
        connected.extend(sized)
    card_of = coster.subquery_cardinalities(query, connected, coster.planning_tag())

    best: dict[frozenset[str], tuple[PlanNode, float]] = {}
    for t in tables:
        best[frozenset((t,))] = _best_scan(query, t, coster, hints)

    if n == 1:
        return Plan(query, best[frozenset(tables)][0])

    for size in range(2, n + 1):
        for subset in by_size[size]:
            champion: tuple[PlanNode, float] | None = None
            # All partitions into two connected, joined halves.
            members = sorted(subset)
            for r in range(1, size):
                for left_combo in combinations(members[1:], r - 1):
                    left_set = frozenset((members[0],) + left_combo)
                    right_set = subset - left_set
                    if left_deep_only and len(right_set) != 1:
                        continue
                    if left_set not in best or right_set not in best:
                        continue
                    conditions = _join_conditions_between(query, left_set, right_set)
                    if not conditions:
                        continue
                    cand = _best_join(
                        query,
                        best[left_set],
                        best[right_set],
                        conditions,
                        coster,
                        hints,
                        card_of,
                        allow_swap=not left_deep_only,
                    )
                    if cand is not None and (
                        champion is None or cand[1] < champion[1]
                    ):
                        champion = cand
            if champion is not None:
                best[subset] = champion

    full = frozenset(tables)
    if full not in best:
        raise ValueError(f"no connected plan covers all tables of {query}")
    return Plan(query, best[full][0])


def reference_plan_arms(
    query: Query,
    coster: PlanCoster,
    arms: list[HintSet],
    *,
    left_deep_only: bool = False,
) -> list[Plan]:
    """One full DP per arm: what Bao's sweep ran before the kernel."""
    return [
        reference_enumerate_dp(query, coster, arm, left_deep_only=left_deep_only)
        for arm in arms
    ]
