"""E6: join-order search quality (§2.1.3).

Compares plan enumeration algorithms -- exhaustive DP, greedy, left-deep
DP -- against the learned searchers: offline RL (DQ [15]/ReJoin [24],
RTOS [73]) and online learners (SkinnerDB-style MCTS [56], Eddy-RL [58]).
Quality metric: executed-latency ratio to the DP plan; MCTS and Eddy see
true execution feedback, so they can *beat* DP (which optimizes the
miscalibrated cost model) -- SkinnerDB's core claim.
"""

import time

import numpy as np

from benchmarks.contract import Table, imdb_db, imdb_optimizer, imdb_simulator, table_export
from repro.joinorder import (
    DQJoinOrderSearch,
    EddyJoinOrderSearch,
    MCTSJoinOrderSearch,
    RTOSJoinOrderSearch,
)
from repro.sql import WorkloadGenerator


def measure(seed=0):
    db, optimizer, simulator = imdb_db(), imdb_optimizer(), imdb_simulator()
    gen = WorkloadGenerator(db, seed=11 + seed)
    train = gen.workload(40, 3, 5, require_predicate=True)
    test = WorkloadGenerator(db, seed=77 + seed).workload(
        25, 3, 5, require_predicate=True
    )

    dq = DQJoinOrderSearch(optimizer, seed=seed)
    dq.train(train, episodes_per_query=6)
    rtos = RTOSJoinOrderSearch(optimizer, seed=seed)
    rtos.train(train[:25], episodes_per_query=4)
    mcts = MCTSJoinOrderSearch(optimizer, evaluate=simulator.latency, seed=seed)
    eddy = EddyJoinOrderSearch(optimizer, seed=seed)

    searchers = {
        "dp (exhaustive)": lambda q: optimizer.plan(q, algorithm="dp"),
        "greedy": lambda q: optimizer.plan(q, algorithm="greedy"),
        "left_deep dp": lambda q: optimizer.plan(q, algorithm="left_deep"),
        "dq/rejoin [15,24]": dq.search,
        "rtos [73]": rtos.search,
        "mcts/skinner [56]": lambda q: mcts.search(q, iterations=40)[0],
        "eddy_rl [58]": eddy.search,
    }
    dp_lat = {q: simulator.execute(searchers["dp (exhaustive)"](q)).latency_ms
              for q in test}
    rows = []
    for name, fn in searchers.items():
        ratios = []
        t0 = time.perf_counter()
        for q in test:
            lat = simulator.execute(fn(q)).latency_ms
            ratios.append(lat / max(dp_lat[q], 1e-9))
        plan_ms = (time.perf_counter() - t0) / len(test) * 1000
        rows.append(
            (name, float(np.median(ratios)), float(np.percentile(ratios, 90)),
             float(max(ratios)), plan_ms)
        )
    return [
        Table(
            "E6: executed-latency ratio to the DP plan (imdb_lite, 3-5 way joins)",
            ["searcher", "median", "p90", "max", "search_ms/query"],
            rows,
            timing=("search_ms/query",),
            note="MCTS/Eddy learn from true latency and may beat DP's cost-model optimum",
        )
    ]


export = table_export(measure)


def test_e6_join_order():
    (table,) = measure()
    print(table.render())
    medians = {r["searcher"]: r["median"] for r in table.records()}
    assert medians["mcts/skinner [56]"] <= 1.05
    assert medians["dq/rejoin [15,24]"] < 3.0
    assert medians["rtos [73]"] < 3.0
    assert medians["eddy_rl [58]"] < 2.0
    assert medians["greedy"] >= 0.99  # greedy cannot beat DP under same model
