"""Seeded schema generator: determinism, topology coverage, validation.

The cross-schema transfer work (P10) stands on one invariant: a
generated database is a pure function of ``(seed, config)`` -- same
inputs give byte-identical data in *any* process, different seeds give
genuinely different schemas.  These tests pin that invariant, including
across two fresh interpreter processes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.errors import ConfigError
from repro.sql import WorkloadGenerator
from repro.sql.query import query_hash
from repro.storage import (
    TOPOLOGIES,
    SchemaGenConfig,
    database_fingerprint,
    generate_database,
    schema_family,
    topology_summary,
)

_SMALL = SchemaGenConfig(n_tables=(4, 6), rows=(80, 200), attr_cols=(1, 2))


def _workload_hashes(db, *, seed: int = 3, n: int = 12) -> list[str]:
    gen = WorkloadGenerator(db, seed=seed)
    cap = min(3, gen.max_component_size)
    return sorted(
        query_hash(q)
        for q in gen.workload(n, 1, cap, require_predicate=True)
    )


class TestDeterminism:
    def test_same_seed_same_process(self):
        a = generate_database(7, _SMALL, name="gen")
        b = generate_database(7, _SMALL, name="gen")
        assert database_fingerprint(a) == database_fingerprint(b)
        assert {t: a.tables[t].data_version for t in a.tables} == {
            t: b.tables[t].data_version for t in b.tables
        }
        assert _workload_hashes(a) == _workload_hashes(b)

    def test_same_seed_two_fresh_processes(self):
        """Fingerprint, data_version and workload hash set survive a
        process boundary -- no hidden global-RNG or hash-seed state."""
        script = (
            "import json\n"
            "from repro.storage import SchemaGenConfig, generate_database, "
            "database_fingerprint\n"
            "from repro.sql import WorkloadGenerator\n"
            "from repro.sql.query import query_hash\n"
            "cfg = SchemaGenConfig(n_tables=(4, 6), rows=(80, 200), "
            "attr_cols=(1, 2))\n"
            "db = generate_database(7, cfg, name='gen')\n"
            "gen = WorkloadGenerator(db, seed=3)\n"
            "cap = min(3, gen.max_component_size)\n"
            "hashes = sorted(query_hash(q) for q in "
            "gen.workload(12, 1, cap, require_predicate=True))\n"
            "print(json.dumps({\n"
            "    'fingerprint': database_fingerprint(db),\n"
            "    'versions': {t: db.tables[t].data_version for t in "
            "sorted(db.tables)},\n"
            "    'hashes': hashes,\n"
            "}))\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = "random"
        runs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            runs.append(json.loads(proc.stdout))
        assert runs[0] == runs[1]
        # and the child processes agree with this process
        here = generate_database(7, _SMALL, name="gen")
        assert runs[0]["fingerprint"] == database_fingerprint(here)
        assert runs[0]["hashes"] == _workload_hashes(here)

    def test_different_seeds_distinct(self):
        fps = {database_fingerprint(generate_database(s, _SMALL, name="gen")) for s in range(6)}
        assert len(fps) == 6


class TestTopologies:
    def _fixed(self, topology: str, n: int = 5) -> SchemaGenConfig:
        return SchemaGenConfig(
            n_tables=(n, n),
            rows=(80, 150),
            attr_cols=(1, 1),
            topology=topology,
            extra_edge_rate=0.0,
            many_to_many_rate=0.0,
        )

    def test_chain(self):
        db = generate_database(1, self._fixed("chain"), name="gen")
        s = topology_summary(db)
        assert s["n_tables"] == 5
        assert s["n_edges"] == 4
        assert s["max_degree"] == 2
        assert s["components"] == [5]

    def test_star(self):
        db = generate_database(1, self._fixed("star"), name="gen")
        s = topology_summary(db)
        assert s["n_edges"] == 4
        assert s["max_degree"] == 4

    def test_clique(self):
        db = generate_database(1, self._fixed("clique"), name="gen")
        s = topology_summary(db)
        assert s["n_edges"] == 5 * 4 // 2
        assert s["max_degree"] == 4

    def test_random_is_connected_spanning(self):
        db = generate_database(2, self._fixed("random"), name="gen")
        s = topology_summary(db)
        assert s["components"] == [5]
        assert s["n_edges"] >= 4

    def test_topology_coverage_across_seeds(self):
        """A family generated with ``topology='random'`` defaults still
        covers distinct shapes; explicit topologies give distinct
        fingerprints for the same seed."""
        fps = {
            t: database_fingerprint(generate_database(9, self._fixed(t), name="gen"))
            for t in TOPOLOGIES
        }
        assert len(set(fps.values())) == len(TOPOLOGIES)

    def test_non_pk_fk_edges_present(self):
        cfg = SchemaGenConfig(
            n_tables=(4, 4),
            rows=(80, 150),
            many_to_many_rate=1.0,
        )
        db = generate_database(3, cfg, name="gen")
        s = topology_summary(db)
        assert s["non_pk_fk_edges"] >= 1
        # the shared-domain columns really exist on both sides
        m2m = [
            e for e in db.joins
            if e.left_column.startswith("m2m") or e.right_column.startswith("m2m")
        ]
        assert m2m, "many-to-many join edges missing from the catalog"

    def test_multiple_components(self):
        cfg = SchemaGenConfig(
            n_tables=(6, 6), rows=(80, 150), n_components=2
        )
        db = generate_database(4, cfg, name="gen")
        s = topology_summary(db)
        assert len(s["components"]) == 2
        assert sum(s["components"]) == 6


class TestFamilyAndValidation:
    def test_schema_family_names_and_distinctness(self):
        dbs = schema_family(4, seed=11, config=_SMALL)
        assert [db.name for db in dbs] == [f"gen{i:02d}" for i in range(4)]
        fps = {database_fingerprint(db) for db in dbs}
        assert len(fps) == 4

    def test_family_same_seed_identical(self):
        a = schema_family(3, seed=5, config=_SMALL)
        b = schema_family(3, seed=5, config=_SMALL)
        assert [database_fingerprint(x) for x in a] == [
            database_fingerprint(x) for x in b
        ]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_tables": (0, 3)},
            {"n_tables": (5, 3)},
            {"rows": (0, 10)},
            {"topology": "ring"},
            {"n_components": 0},
            {"attr_cols": (0, 2)},
            {"extra_edge_rate": -0.1},
            {"many_to_many_rate": 1.5},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ConfigError):
            SchemaGenConfig(**kwargs)

    def test_fingerprint_sensitive_to_data(self):
        a = generate_database(7, _SMALL, name="gen")
        b = generate_database(7, _SMALL, name="gen")
        table = next(iter(b.tables.values()))
        col = next(
            table.column(c)
            for c in table.column_names
            if not table.column(c).is_key
        )
        col.values[0] += 1
        assert database_fingerprint(a) != database_fingerprint(b)
