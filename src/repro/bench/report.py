"""Plain-text table rendering for experiment output."""

from __future__ import annotations

from typing import Sequence

__all__ = ["render_table", "render_stats"]


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.2f}"
    return str(value)


def render_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence],
    note: str | None = None,
) -> str:
    """Render an aligned text table with a title rule.

    Cells may be any value; floats are formatted adaptively.  Used by all
    ``benchmarks/bench_*.py`` experiments so their output is uniform and
    greppable in ``bench_output.txt``.
    """
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    sep = "-+-".join("-" * w for w in widths)
    out = [f"\n=== {title} ===" if title else ""]
    out.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    out.append(sep)
    for row in cells:
        out.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    if note:
        out.append(f"note: {note}")
    return "\n".join(out)


def render_stats(stats: dict, *, title: str, note: str | None = None) -> str:
    """Render any ``stats()`` dict, in the dict's own order.

    A flat dict (a cache's, guard's, injector's or leaderboard's counters)
    becomes one ``(stat, value)`` row per key; a dict of dicts (a
    lifecycle's components, a fabric's shards) one ``(component, stat,
    value)`` row per inner key.
    """
    if stats and all(isinstance(block, dict) for block in stats.values()):
        headers = ["component", "stat", "value"]
        rows = [
            (component, key, value)
            for component, block in stats.items()
            for key, value in block.items()
        ]
    else:
        headers = ["stat", "value"]
        rows = list(stats.items())
    return render_table(title, headers, rows, note=note)
