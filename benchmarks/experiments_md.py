"""EXPERIMENTS.md's measured tables, generated: ``python -m
benchmarks.experiments_md [key ...]`` runs each named bench's
``measure(seed=0)`` (default: every bench with a block in the file, ~2.5
min) and rewrites what lies between its two markers,

    <!-- measured:e1 -->
    ...
    <!-- /measured:e1 -->

with the bench's tables: the columns the export carries (no wall-clock
column, so a rerun leaves ``git diff`` empty), each cell as
``render_table`` prints it.  Everything outside the markers -- "Paper
says", the setup line, the verdict -- is hand-written and left alone.  CI
runs this per key and fails on a stale file.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

from benchmarks import BENCHMARKS, load
from benchmarks.contract import Table
from repro.bench import render_table

PATH = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"


def _block(key: str) -> re.Pattern:
    return re.compile(
        rf"^(?P<indent>[ \t]*)<!-- measured:{key} -->\n.*?<!-- /measured:{key} -->",
        re.DOTALL | re.MULTILINE,
    )


def markdown(table: Table) -> list[str]:
    """The table's non-timing columns as a GitHub table: ``render_table``'s
    own lines, so each cell is formatted as it formats it, re-ruled with
    pipes."""
    table = table.deterministic()
    header, rule, *body = render_table("", table.headers, table.rows).splitlines()[1:]
    lines = [f"*{table.title}*", "", f"| {header} |", f"|-{rule.replace('-+-', '-|-')}-|"]
    lines += [f"| {row} |" for row in body]
    if table.note:
        lines += ["", f"*note: {table.note}*"]
    return lines


def rewrite(text: str, key: str, tables: list[Table]) -> str:
    """``text`` with the block of ``key`` replaced by ``tables``."""
    pattern = _block(key)
    found = pattern.search(text)
    if found is None:
        raise SystemExit(f"experiments_md: no '<!-- measured:{key} -->' block in {PATH.name}")
    lines = [f"<!-- measured:{key} -->"]
    for table in tables:
        lines += ["", *markdown(table)]
    lines += ["", f"<!-- /measured:{key} -->"]
    indent = found["indent"]
    block = "\n".join((indent + line).rstrip() for line in lines)
    return text[: found.start()] + block + text[found.end() :]


def main(argv=None) -> int:
    keys = list(sys.argv[1:] if argv is None else argv)
    text = PATH.read_text()
    for key in keys or [k for k in BENCHMARKS if _block(k).search(text)]:
        text = rewrite(text, key, load(key).measure(0))
        PATH.write_text(text)
        print(f"{PATH.name}: {key}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
