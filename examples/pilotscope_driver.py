"""Writing and deploying a custom PilotScope driver (paper §3.2).

Demonstrates the middleware's programming model end to end: implement a
new AI4DB driver by overriding ``init()`` (via ``_prepare``) and
``algo()``, interact with the database exclusively through push/pull
operators, register it on the console and serve user SQL transparently.

The custom driver here is a miniature "re-optimizer": it plans the query,
executes it, and -- when the native cardinality estimate for the full
query was badly wrong -- feeds the *observed* cardinality back so the next
occurrence of the same query plans with corrected numbers (a tiny
LPCE-flavoured loop built only from middleware primitives).

Run:  python examples/pilotscope_driver.py
"""

from repro.engine.simulator import ExecutionResult
from repro.pilotscope import (
    Driver,
    PilotScopeConsole,
    SimulatedPostgreSQL,
)
from repro.sql import Query, WorkloadGenerator
from repro.storage import make_stats_lite


class FeedbackDriver(Driver):
    """Re-optimizing driver: remembers observed cardinalities."""

    injection_type = "cardinality"
    name = "feedback_reoptimizer"

    def _prepare(self) -> None:
        # init(): preparations -- here, the feedback store.
        self.observed: dict[str, float] = {}
        self.corrections = 0

    def algo(self, query: Query) -> ExecutionResult:
        interactor = self._require_started()
        with interactor.open_session() as session:
            # Push everything we have observed about this query's
            # sub-queries before planning.
            known = {
                sub.to_sql(): self.observed[sub.to_sql()]
                for sub in session.pull_subqueries(query)
                if sub.to_sql() in self.observed
            }
            if known:
                session.push_cardinalities(known)
                self.corrections += 1
            plan = session.pull_plan(query)
            result = session.pull_execution(plan)
            # Pull-side feedback: record true cardinalities of every plan
            # node for future queries over the same sub-expressions.
            for node, card in result.node_cards.items():
                sub = plan.node_subquery(node)
                self.observed[sub.to_sql()] = float(card)
        return result


def main() -> None:
    db = make_stats_lite(scale=0.5, seed=0)
    pg = SimulatedPostgreSQL(db)
    console = PilotScopeConsole(pg)

    driver = FeedbackDriver()
    console.register_driver(driver)
    console.start_driver("feedback_reoptimizer")
    print("driver started:", console.active_drivers())

    # A workload with repeats: the driver's feedback pays off on re-runs.
    gen = WorkloadGenerator(db, seed=5)
    base = gen.workload(15, 2, 4, require_predicate=True)
    workload = base * 3

    first_pass = sum(console.execute(q).latency_ms for q in workload[:15])
    second_pass = sum(console.execute(q).latency_ms for q in workload[15:30])
    third_pass = sum(console.execute(q).latency_ms for q in workload[30:])
    print(f"pass 1 latency: {first_pass:.1f} ms  (cold: native estimates)")
    print(f"pass 2 latency: {second_pass:.1f} ms  (observed cards pushed)")
    print(f"pass 3 latency: {third_pass:.1f} ms")
    print(f"queries planned with corrected cardinalities: {driver.corrections}")
    print(f"distinct sub-queries learned: {len(driver.observed)}")

    # The user-facing log never mentions ML internals -- transparency.
    served = {e.served_by for e in console.query_log}
    print("query log served_by values:", served)


if __name__ == "__main__":
    main()
