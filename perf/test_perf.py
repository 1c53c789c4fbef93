"""Self-test of the benchmark (``python -m pytest perf/``, smoke sizes, < 60 s).

Checks that the output checks bite, that span arithmetic is right, that
inputs are a pure function of the seed, and that ``BENCHMARK.json`` and
the runner agree on every name.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
for _path in (str(ROOT / "src"), str(PERF)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import calib  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, sql_digest  # noqa: E402

from repro.serve import RuntimeConfig, ServingRuntime, build_schedule  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- the output checks bite ------------------------------------------------------------


def test_wrong_answers_are_counted(monkeypatch):
    monkeypatch.setattr(run, "CHECK_EVERY", 4)

    def off_by_one(round_):
        backend = round_.backends[0]
        honest = backend.serve

        def serve(query):
            decision = honest(query)
            return dataclasses.replace(decision, cardinality=decision.cardinality + 1)

        backend.serve = serve

    clean = run.measure_round(WORKLOADS["native_prepared_mix"], 0, smoke=True)
    assert clean["checked"] > 0 and clean["failed"] == 0 and clean["sound"]
    bad = run.measure_round(WORKLOADS["native_prepared_mix"], 0, smoke=True, mutate=off_by_one)
    assert bad["failed"] == bad["checked"] > 0
    assert bad["failed"] / bad["n_requests"] > 0 and not bad["sound"]


def test_rejections_are_counted():
    def reject_everything(round_):
        runtime = ServingRuntime(round_.backends[0], config=RuntimeConfig(max_in_flight=0))
        schedule = build_schedule(round_.queries, 2, seed=0)
        round_.run = lambda: runtime.run(schedule)

    result = run.measure_round(
        WORKLOADS["native_prepared_mix"], 0, smoke=True, mutate=reject_everything
    )
    assert result["served"] == 0
    assert result["failed"] == result["rejected"] == result["n_requests"]
    assert result["sound"]  # refusing work is a failure, not a wrong output


# -- speed calibration -----------------------------------------------------------------


def test_speed_factor_arithmetic():
    c = calib.Calibrator()
    c.py_s, c.np_s, c.samples = 4 * 2.0 * calib.REF_PY_S, 4 * 2.0 * calib.REF_NP_S, 4
    assert c.speed() == pytest.approx(2.0)  # both parts twice their reference time
    c.np_s /= 4.0  # one part 2x, the other 0.5x: geometric mean
    assert c.speed() == pytest.approx(1.0)
    after = c.sample()
    assert c.samples == 5 and c.due == pytest.approx(after + calib.EVERY_S)


def test_kernel_time_lands_in_no_gap(monkeypatch):
    nap = 0.02
    monkeypatch.setattr(calib, "EVERY_S", 0.0)  # a kernel timing after every request
    monkeypatch.setattr(calib, "_py_kernel", lambda: time.sleep(nap))
    result = run.measure_round(WORKLOADS["native_prepared_mix"], 0, smoke=True)
    t_run, t_end = result["window"]
    assert result["sound"] and result["served"] > 0
    assert result["p50_ms"] < nap * 1e3 / 4
    assert result["serve_s"] <= (t_end - t_run) - result["served"] * nap
    assert result["speed"] > nap / calib.REF_PY_S / 10  # and the naps read as a slow box


# -- span arithmetic -------------------------------------------------------------------


def test_self_time_on_a_nested_tree():
    rows = [
        # name, start, end, parent, request, weight, size
        ("root", 0.0, 10.0, -1, 0, 1, 0),
        ("a", 1.0, 4.0, 0, 0, 1, 0),
        ("b", 2.0, 3.0, 1, 0, 1, 0),
        ("a", 5.0, 9.0, 0, 1, 1, 0),
        ("b", 6.0, 6.5, 3, 1, 1, 0),
    ]
    totals = spans.layer_totals(rows)
    assert totals["root"] == {"calls": 1, "incl_s": 10.0, "self_s": 3.0, "max_ms": 10_000.0}
    assert totals["a"]["calls"] == 2 and totals["a"]["incl_s"] == 7.0
    assert totals["a"]["self_s"] == pytest.approx(5.5)
    assert totals["b"]["self_s"] == pytest.approx(1.5)
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(10.0)
    # windows select spans by start time; a child still reduces its parent
    late = spans.layer_totals(rows, since=5.0)
    assert late["a"]["self_s"] == pytest.approx(3.5) and "root" not in late


def test_self_time_with_probe_cost_and_sampling():
    # every descendant costs its ancestors 0.1 s of wrapper time
    rows = [("root", 0.0, 10.0, -1, 0, 1, 0), ("a", 1.0, 4.0, 0, 0, 1, 0), ("b", 2.0, 3.0, 1, 0, 1, 0)]
    totals = spans.layer_totals(rows, probe_cost_s=0.1)
    assert totals["a"]["incl_s"] == pytest.approx(2.9)
    assert totals["root"]["self_s"] == pytest.approx(10.0 - 0.2 - 2.9)
    # an unsampled 10 s loop, one block in 4 sampled; the block ran slow (5 s,
    # so 4 x 5 = 20 s of windows for a 10 s loop): sampled time is halved
    rows = [
        ("loop", 0.0, 10.0, -1, 0, 1, 0),
        (spans.WINDOW_SPAN, 0.0, 5.0, 0, 0, 4, 0),
        ("child", 1.0, 3.0, 0, 0, 4, 0),
        ("leaf", 1.5, 2.0, 2, 0, 4, 0),
        (spans.GC_SPAN, 6.0, 7.0, 0, 0, 1, 2),
    ]
    totals = spans.layer_totals(rows)
    # the pause is the loop's own child: 9 s are left for 20 s of windows
    assert totals["child"]["incl_s"] == pytest.approx(4 * 0.45 * 2.0)
    assert totals["leaf"]["self_s"] == pytest.approx(4 * 0.45 * 0.5)
    assert totals["child"]["calls"] == 4
    assert totals[spans.GC_SPAN]["self_s"] == pytest.approx(1.0)
    assert totals["loop"]["self_s"] == pytest.approx(10.0 - 1.0 - 3.6)
    assert spans.WINDOW_SPAN not in totals
    # a pause inside a sampled span is charged once, to the loop, not four times
    rows[4] = (spans.GC_SPAN, 1.6, 1.8, 3, 0, 1, 0)
    totals = spans.layer_totals(rows)
    assert totals[spans.GC_SPAN]["self_s"] == pytest.approx(0.2)
    scale = (10.0 - 0.2) / (4 * (5.0 - 0.2))
    assert totals["leaf"]["self_s"] == pytest.approx(4 * scale * 0.3)
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(10.0)


def test_recorder_links_spans_and_restores_targets():
    class Layer:
        def outer(self, n):
            return [self.inner(i) for i in range(n)]

        def inner(self, i):
            return i

    recorder = spans.Recorder()
    original = Layer.__dict__["outer"]
    probes = [
        spans.Probe("t.outer", f"{__name__}.Layer.outer", sized=True),
        spans.Probe("t.gone", "repro.serve.runtime.ServingRuntime.no_such_method"),
        spans.Probe("t.gone", "repro.no_such_module.Thing.method"),
    ]
    sys.modules[__name__].Layer = Layer
    try:
        recorder.install(probes)
        Layer.inner = recorder.wrap(Layer.inner, "t.inner")
        assert Layer().outer(3) == [0, 1, 2]
    finally:
        recorder.uninstall()
        del sys.modules[__name__].Layer
    assert Layer.__dict__["outer"] is original
    assert recorder.missing == [p.target for p in probes[1:]]
    rows = [r for r in recorder.rows() if r[0].startswith("t.")]
    assert [r[0] for r in rows] == ["t.outer", "t.inner", "t.inner", "t.inner"]
    assert rows[0][3] == -1 and rows[0][6] == 3
    outer_row = recorder.rows().index(rows[0])
    assert all(r[3] == outer_row and rows[0][1] <= r[1] <= r[2] <= rows[0][2] for r in rows[1:])


# -- inputs are a pure function of the seed --------------------------------------------


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_sql(name):
    build = WORKLOADS[name].build
    first = sql_digest(build(3, True).queries)
    assert first == sql_digest(build(3, True).queries)
    assert first != sql_digest(build(4, True).queries)


# -- the runner end to end, smoke sizes -------------------------------------------------


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_and_untraced_passes_agree(name):
    untraced = run.run_workload(name, 0, 1.0, trace=False, smoke=True)
    assert untraced["correct"] and untraced["failed"] == 0
    assert set(untraced["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value in untraced["metrics"].values())
    traced = run.run_workload(name, 0, 1.0, trace=True, smoke=True)
    # run_workload fails the run if any digest / count / exec_ms differs
    assert traced["correct"] and traced["probes_missing"] == []
    assert traced["digests"][0::2] == traced["digests"][1::2] == untraced["digests"]
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert traced["metrics"]["trace.coverage_share"] >= 0.9


def test_spec_matches_the_workload_table():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in SPEC["workloads"])
    assert SPEC["paths"] == ["perf"] and SPEC["command"] == ["python3", "perf/run.py"]


def test_no_result_without_the_program(tmp_path):
    shutil.copytree(PERF, tmp_path / "perf", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "fabric_synthetic", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


# -- compare.py -------------------------------------------------------------------------


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5]
    assert compare.verdict(100.0, 105.0, steady, steady, "lower", 0.1)[1] == "within"
    assert compare.verdict(100.0, 115.0, steady, steady, "lower", 0.1)[1] == "outside"
    assert compare.verdict(100.0, 85.0, steady, steady, "higher", 0.1)[1] == "outside"
    assert compare.verdict(100.0, 115.0, steady, steady, "higher", 0.1)[1] == "within"
    # rounds differ by sub-seed, not by noise: identical twins leave no spread
    mixed = [60.0, 100.0, 140.0, 180.0]
    assert compare.verdict(100.0, 100.0, mixed, mixed, "lower", 0.1)[1] == "within"
    # twins that disagree by more than the bound cannot settle anything ...
    noisy = [90.0, 100.0, 70.0, 108.0]
    assert compare.verdict(100.0, 115.0, steady, noisy, "lower", 0.1)[1] == "unresolved"
    # ... unless every round of B beats its twin
    faster = [50.0, 80.0, 60.0, 95.0]
    assert compare.verdict(100.0, 50.0, steady, faster, "lower", 0.1)[1] == "within"
    worse_by, _ = compare.verdict(200.0, 150.0, steady, steady, "higher", 0.1)
    assert worse_by == pytest.approx(0.25)
