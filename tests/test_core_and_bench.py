"""Tests for the registry (Table 1), advisor extensions and bench support."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import benchmarks
from benchmarks import experiments_md
from benchmarks.contract import Table, to_json
from repro.bench import apply_drift, build_estimator, render_table
from repro.bench.suite import fit_estimator
from repro.cardest.advisor import AutoCE, DatasetFeatures, flow_loss_weights
from repro.core import registry
from repro.core.framework import (
    LearnedOptimizer,
    PlanExplorationStrategy,
    RiskModel,
)
from repro.core.registry import cardinality_estimator_rows
from repro.sql import WorkloadGenerator
from repro.storage import make_stats_lite, make_tpch_lite

_ROOT = Path(__file__).resolve().parent.parent


def _bench_cli(*args):
    """Run ``python -m benchmarks`` from a plain checkout (no PYTHONPATH)."""
    return subprocess.run(
        [sys.executable, "-m", "benchmarks", *args],
        cwd=_ROOT,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
        capture_output=True,
    )


class TestRegistry:
    def test_all_entries_resolve(self):
        for m in registry():
            cls = m.resolve()
            assert isinstance(cls, type)

    def test_component_filter(self):
        cards = registry("cardinality")
        assert all(m.component == "cardinality" for m in cards)
        with pytest.raises(ValueError):
            registry("teleportation")

    def test_table1_rows_cover_paper_categories(self):
        rows = cardinality_estimator_rows()
        categories = {c for c, _, _ in rows}
        # The paper's Table 1 category structure.
        assert any("Query-Driven" in c for c in categories)
        assert any("Data-Driven" in c for c in categories)
        assert any("Hybrid" in c for c in categories)
        assert any("Auto-Regression" in c for c in categories)
        assert any("Probabilistic" in c for c in categories)

    def test_key_methods_present(self):
        methods = {m.method for m in registry()}
        for expected in ("MSCN", "Naru", "DeepDB", "FLAT", "FactorJoin",
                         "Bao", "Lero", "Neo", "Balsa", "LEON", "Eraser"):
            assert expected in methods

    def test_every_end_to_end_system_instantiates_the_framework(self, imdb_optimizer, imdb_simulator):
        """§2.2: a plan-exploration strategy plus a learned risk model, in
        the one loop that owns choose -> feedback -> retrain cadence."""
        systems = registry("end_to_end")
        assert len(systems) == 7
        # LEON executes its DP runner-up out-of-band
        extra = {"LEON": {"shadow_executor": imdb_simulator.latency}}
        for m in systems:
            cls = m.resolve()
            assert issubclass(cls, LearnedOptimizer), m.method
            learned = cls(imdb_optimizer, **extra.get(m.method, {}))
            assert isinstance(learned.exploration, PlanExplorationStrategy), m.method
            assert isinstance(learned.risk_model, RiskModel), m.method
            for loop in ("choose_plan", "record_feedback", "retrain"):
                assert getattr(cls, loop) is getattr(LearnedOptimizer, loop), m.method


class TestAdvisor:
    def test_dataset_features_shape(self, stats_db):
        feats = DatasetFeatures.of(stats_db)
        assert feats.vector().shape == (6,)
        assert feats.n_tables == 5.0

    def test_recommend_nearest_profile(self):
        advisor = AutoCE()
        stats = make_stats_lite(0.2, seed=1)
        tpch = make_tpch_lite()
        advisor.record(stats, "fspn")
        advisor.record(tpch, "histogram")
        # A slightly different stats-like db should match the stats profile.
        other = make_stats_lite(0.25, seed=9)
        assert advisor.recommend(other) == "fspn"

    def test_recommend_requires_profiles(self, stats_db):
        with pytest.raises(RuntimeError):
            AutoCE().recommend(stats_db)

    def test_flow_loss_weights_normalized(self, stats_db, stats_optimizer):
        gen = WorkloadGenerator(stats_db, seed=110)
        queries = gen.workload(15, 2, 4, require_predicate=True)
        w = flow_loss_weights(queries, stats_optimizer)
        assert w.shape == (15,)
        assert w.sum() == pytest.approx(1.0)
        assert np.all(w >= 0)


class TestRenderTable:
    def test_contains_all_cells(self):
        out = render_table("T", ["a", "b"], [[1, 2.5], ["x", 10000.0]])
        assert "T" in out
        assert "2.50" in out
        assert "10,000" in out
        assert "x" in out

    def test_note_rendered(self):
        out = render_table("T", ["a"], [[1]], note="hello")
        assert "note: hello" in out

    def test_empty_rows(self):
        out = render_table("T", ["a"], [])
        assert "a" in out


class TestWorkloadRecipes:
    def test_apply_drift_grows_tables_and_shifts(self):
        db = make_stats_lite(0.2, seed=2)
        before_rows = db.table("posts").n_rows
        before_mean = float(db.table("posts").values("score").mean())
        changed = apply_drift(db, fraction=0.5, seed=0)
        assert "posts" in changed
        assert db.table("posts").n_rows > before_rows
        after_mean = float(db.table("posts").values("score").mean())
        assert after_mean > before_mean  # top-quantile inserts shift up

    def test_apply_drift_keeps_fk_integrity(self):
        db = make_stats_lite(0.2, seed=3)
        apply_drift(db, fraction=0.3, seed=1)
        for e in db.joins:
            if db.table(e.right_table).column(e.right_column).is_key:
                fk = db.table(e.left_table).values(e.left_column)
                pk = db.table(e.right_table).values(e.right_column)
                assert set(np.unique(fk)) <= set(np.unique(pk))

    def test_apply_drift_validates_fraction(self, stats_db):
        with pytest.raises(ValueError):
            apply_drift(make_stats_lite(0.1), fraction=0.0)


class TestSuiteBuilders:
    def test_build_unknown_estimator(self, stats_db):
        with pytest.raises(ValueError):
            build_estimator("oracle", stats_db)
        # a misspelt budget used to train at the small one without a word
        with pytest.raises(ValueError, match=r"\('fast', 'full'\)"):
            build_estimator("histogram", stats_db, budget="Full")

    @pytest.mark.parametrize("name", ["histogram", "gbdt", "spn"])
    def test_build_and_fit(self, name, stats_db, stats_train_data):
        est = build_estimator(name, stats_db, budget="fast")
        fit_estimator(est, *stats_train_data)
        q = stats_train_data[0][0]
        assert est.estimate(q) >= 0


class TestTableContract:
    """The shared helper under every T/E/P1 bench: no bench is run."""

    TABLES = [
        Table(
            "T: accuracy and cost",
            ["method", "gmq", "rows", "build_s", "key"],
            [
                ("mscn", 0.1 + 0.2, 12_000, 1.25, "—"),
                ("kde", np.float64(1234.5678), np.int64(7), 0.0, None),
                ("masked", "-", 0, 33.3, "x"),
            ],
            timing=("build_s",),
            note="shape check",
        ),
        Table("Tb: the second table", ["component", "n"], [("cost", 1)]),
    ]

    def test_export_bytes_are_canonical_and_round_trip(self):
        blob = to_json(self.TABLES, seed=3)
        payload = json.loads(blob)
        assert json.dumps(payload, sort_keys=True, indent=1) + "\n" == blob
        assert "0.30000000000000004" in blob and "1234.5678" in blob  # floats by repr
        first = payload["tables"][0]
        assert first["rows"][0] == ["mscn", 0.1 + 0.2, 12_000, "—"]
        assert first["rows"][1] == ["kde", 1234.5678, 7, None]
        assert payload["seed"] == 3
        assert to_json(self.TABLES, seed=3) == blob

    def test_timing_columns_are_rendered_but_never_exported(self):
        table = self.TABLES[0]
        assert "build_s" in table.render() and "33.3" in table.render()
        exported = json.loads(to_json([table], seed=0))["tables"][0]
        assert exported["headers"] == ["method", "gmq", "rows", "key"]
        assert all(len(row) == 4 for row in exported["rows"])
        with pytest.raises(ValueError, match="infer_ms"):
            Table("t", ["a"], [(1,)], timing=("infer_ms",)).deterministic()

    def test_two_tables_keep_their_order(self):
        titles = [t["title"] for t in json.loads(to_json(self.TABLES, seed=0))["tables"]]
        assert titles == ["T: accuracy and cost", "Tb: the second table"]
        assert titles[::-1] == [
            t["title"] for t in json.loads(to_json(self.TABLES[::-1], seed=0))["tables"]
        ]

    def test_generated_markdown_is_render_table_cell_for_cell(self):
        text = "intro\n\n  <!-- measured:x -->\n  stale\n  <!-- /measured:x -->\n\n- verdict\n"
        out = experiments_md.rewrite(text, "x", self.TABLES)
        assert out.startswith("intro\n\n  <!-- measured:x -->\n")
        assert out.endswith("  <!-- /measured:x -->\n\n- verdict\n") and "stale" not in out
        assert experiments_md.rewrite(out, "x", self.TABLES) == out
        assert "build_s" not in out and "*note: shape check*" in out

        def cells(line):
            return [c.strip() for c in line.strip().strip("|").split("|")]

        table = self.TABLES[0].deterministic()
        rendered = render_table("", table.headers, table.rows).splitlines()[1:]
        start = out.splitlines().index("  *T: accuracy and cost*") + 2
        written = out.splitlines()[start : start + len(rendered)]
        assert all(line.startswith("  |") for line in written)
        assert set(written[1]) == {" ", "|", "-"}
        for md, plain in zip(written[:1] + written[2:], rendered[:1] + rendered[2:]):
            assert cells(md) == cells(plain)
        assert cells(written[2]) == ["mscn", "0.30", "12000", "—"]
        assert cells(written[3]) == ["kde", "1,235", "7", "None"]
        with pytest.raises(SystemExit, match="measured:y"):
            experiments_md.rewrite(text, "y", self.TABLES)


class TestBenchEntryPoint:
    """The benchmarks registry, the ``export`` contract and the one CLI."""

    def test_registry_and_directory_agree(self):
        files = {p.stem for p in (_ROOT / "benchmarks").glob("bench_*.py")}
        assert files == {module for module, _ in benchmarks.BENCHMARKS.values()}

    def test_export_contract(self):
        """One size: every export is a function of its key and seed alone."""
        for key in benchmarks.BENCHMARKS:
            module = benchmarks.load(key)
            assert list(inspect.signature(module.export).parameters) == ["seed"], key
            if hasattr(module, "measure"):  # the table contract
                assert list(inspect.signature(module.measure).parameters) == ["seed"], key
        assert _bench_cli("p5", "--profile", "quick").returncode == 2

    def test_cli_export_matches_stdout_and_function(self, tmp_path):
        out = tmp_path / "p5.json"
        to_file = _bench_cli("p5", "--export", str(out))
        to_stdout = _bench_cli("p5")
        assert to_file.returncode == 0 and to_file.stdout == b""
        assert to_stdout.returncode == 0
        expected = benchmarks.load("p5").export(seed=0)
        assert out.read_bytes() == to_stdout.stdout == expected.encode()

    def test_cli_rejects_an_unknown_key(self):
        assert _bench_cli("nope").returncode == 2

    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_cli_rejects_a_seed_that_is_not_a_non_negative_int(self, seed):
        result = _bench_cli("p5", "--seed", seed)
        assert result.returncode == 2
        assert b"--seed" in result.stderr and b"Traceback" not in result.stderr

    def test_readme_names_every_registered_module(self):
        readme = (_ROOT / "README.md").read_text()
        for module, _ in benchmarks.BENCHMARKS.values():
            assert f"{module}.py" in readme, module
