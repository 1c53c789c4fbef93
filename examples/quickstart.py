"""Quickstart: plan and execute SQL against the bundled engine.

Shows the core loop every other example builds on: make a database, parse
a query, let the native optimizer plan it, execute on the simulator, then
steer the same planner with hints and with injected cardinalities.

Run:  python examples/quickstart.py
"""

from repro import ExecutionSimulator, HintSet, Optimizer, quickstart_database
from repro.core.interfaces import InjectedCardinalities
from repro.engine import CardinalityExecutor
from repro.sql import parse_query


def main() -> None:
    db = quickstart_database()
    print(f"database: {db}\n")

    optimizer = Optimizer(db)
    simulator = ExecutionSimulator(db)

    sql = (
        "SELECT COUNT(*) FROM comments, posts, users "
        "WHERE comments.post_id = posts.id AND posts.owner_id = users.id "
        "AND users.reputation <= 5 AND posts.score >= 3"
    )
    query = parse_query(sql)
    print(f"query:\n  {sql}\n")

    # 1. The native optimizer's plan.
    plan = optimizer.plan(query)
    result = simulator.execute(plan)
    print("native plan:")
    print(plan.pretty())
    print(f"-> {result.cardinality} rows in {result.latency_ms:.2f} ms "
          f"(estimated cost {optimizer.cost(plan):.1f})\n")

    # 2. Steer with a hint set (Bao's knob): forbid hash joins.
    hinted = optimizer.plan(query, hints=HintSet(enable_hash_join=False))
    print("hint-steered plan (no hash joins):")
    print(hinted.pretty())
    print(f"-> {simulator.execute(hinted).latency_ms:.2f} ms\n")

    # 3. Inject exact cardinalities (PilotScope's knob): the oracle plan.
    exact = CardinalityExecutor(db)
    injected = InjectedCardinalities(optimizer.estimator)
    for sub in query.connected_subqueries():
        injected.inject(sub, exact.cardinality(sub))
    oracle_plan = optimizer.with_estimator(injected).plan(query)
    print("plan under exact cardinalities:")
    print(oracle_plan.pretty())
    print(f"-> {simulator.execute(oracle_plan).latency_ms:.2f} ms")


if __name__ == "__main__":
    main()
