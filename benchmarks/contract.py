"""The one bench contract: ``measure(seed)`` -> ``export`` -> gates.

Every paper-reproduction bench (T1, E1-E13) and P1 has the same three parts:

- ``measure(seed=0)`` builds its own inputs and returns its tables as data,
  a list of :class:`Table`.  Every workload / model seed inside it is
  ``k + seed``; the databases are the shared seed-0 ones built once per
  process by the cached builders below.
- ``export = table_export(measure)``: canonical JSON of every non-timing
  column, the bytes ``python -m benchmarks <key>`` writes and CI diffs
  across two fresh processes.  A wall-clock column is named once, in its
  table's ``timing``: the gates print it, nothing exports or diffs it.
- ``test_*`` gates that assert on ``measure()`` and print ``Table.render()``.

``python -m benchmarks.experiments_md`` writes the same tables, less the
same columns, into EXPERIMENTS.md.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.bench import render_table
from repro.engine import CardinalityExecutor, ExecutionSimulator
from repro.optimizer import Optimizer
from repro.sql import WorkloadGenerator
from repro.storage import make_imdb_lite, make_stats_lite


@dataclass(frozen=True)
class Table:
    """One measured table: ``render_table``'s arguments plus which columns
    are wall-clock."""

    title: str
    headers: Sequence[str]
    rows: Sequence[Sequence]
    timing: Sequence[str] = ()
    note: str | None = None

    def render(self) -> str:
        return render_table(self.title, self.headers, self.rows, note=self.note)

    def records(self) -> list[dict]:
        """One ``{header: cell}`` per row: what the gates assert on."""
        return [dict(zip(self.headers, row)) for row in self.rows]

    def deterministic(self) -> "Table":
        """This table without its timing columns."""
        unknown = set(self.timing) - set(self.headers)
        if unknown:
            raise ValueError(f"{self.title}: timing columns {sorted(unknown)} are not headers")
        keep = [i for i, h in enumerate(self.headers) if h not in self.timing]
        return Table(
            self.title,
            [self.headers[i] for i in keep],
            [[row[i] for i in keep] for row in self.rows],
            note=self.note,
        )


def _plain(value):
    """numpy scalars as the Python numbers ``json`` writes by ``repr``."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"cell {value!r} is not JSON-serializable")


def to_json(tables: Sequence[Table], seed: int) -> str:
    """Canonical bytes: sorted keys, fixed separators, floats by ``repr``,
    tables and rows in measured order, no timing column."""
    payload = {
        "seed": seed,
        "tables": [
            {"title": t.title, "headers": list(t.headers), "rows": [list(r) for r in t.rows]}
            for t in map(Table.deterministic, tables)
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=1, default=_plain) + "\n"


def table_export(measure: Callable[[int], Sequence[Table]]):
    """The ``export(seed)`` of a table bench."""

    def export(seed: int = 0) -> str:
        return to_json(measure(seed), seed)

    return export


# -- shared inputs: built once per process, by whoever asks first ---------------------
#
# Benchmarks use larger databases than the unit tests (scale 0.6) so the
# reported shapes are stable; everything stays laptop-scale.  A bench that
# mutates its database builds a private copy: ``stats_db.__wrapped__()``.


@functools.cache
def stats_db():
    return make_stats_lite(scale=0.6, seed=0)


@functools.cache
def imdb_db():
    return make_imdb_lite(scale=0.6)


@functools.cache
def stats_executor():
    return CardinalityExecutor(stats_db())


@functools.cache
def stats_optimizer():
    return Optimizer(stats_db())


@functools.cache
def stats_simulator():
    return ExecutionSimulator(stats_db())


@functools.cache
def imdb_optimizer():
    return Optimizer(imdb_db())


@functools.cache
def imdb_simulator():
    return ExecutionSimulator(imdb_db())


def _labelled(seed: int, n: int):
    queries = WorkloadGenerator(stats_db(), seed=seed).workload(n, 1, 4, require_predicate=True)
    executor = stats_executor()
    return queries, np.array([executor.cardinality(q) for q in queries])


@functools.cache
def stats_train(seed: int = 0):
    """400 labelled 1-4 table queries: the shared training workload."""
    return _labelled(1 + seed, 400)


@functools.cache
def stats_test(seed: int = 0):
    """120 labelled queries from a generator the training one never saw."""
    return _labelled(97 + seed, 120)
