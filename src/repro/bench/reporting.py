"""Plain-text reporting for benchmark results.

The harness prints each experiment as an ASCII table shaped like the
corresponding paper figure: one row per x-axis value, one column per
series — so "Figure 8" prints as search-time columns for a = 0, 0.5, 1
against rows of N, directly comparable with the paper's plot.
"""

from __future__ import annotations

import json
import platform
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

__all__ = ["format_table", "format_series", "print_experiment", "write_bench"]


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.3f}"
        return f"{value:.4g}"
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """Render rows as an aligned ASCII table."""
    str_rows: List[List[str]] = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    header = "  ".join(h.rjust(widths[k]) for k, h in enumerate(headers))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.rjust(widths[k]) for k, cell in enumerate(row)))
    return "\n".join(lines)


def format_series(
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    note: Optional[str] = None,
) -> str:
    """A titled table with an optional footnote."""
    parts = [f"== {title} ==", format_table(headers, rows)]
    if note:
        parts.append(note)
    return "\n".join(parts) + "\n"


def print_experiment(
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    note: Optional[str] = None,
) -> None:
    """Print a titled experiment table to stdout."""
    print(format_series(title, headers, rows, note))


def write_bench(path: Path, document: Dict[str, Any]) -> None:
    """Write a ``BENCH_*.json`` *document*, with this Python's version
    and every float rounded to three places."""
    document = _rounded({**document, "python": platform.python_version()})
    path.write_text(json.dumps(document, indent=2) + "\n")


def _rounded(value: Any) -> Any:
    if isinstance(value, float):
        return round(value, 3)
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_rounded(item) for item in value]
    return value
