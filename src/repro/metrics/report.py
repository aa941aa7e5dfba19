"""Plain-text rendering of experiment results: tables and ASCII series.

Experiments print the same rows/series the paper's figures imply;
these helpers keep the formatting consistent and dependency-free.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.errors import ConfigurationError


def format_duration(seconds: Optional[float]) -> str:
    """Human scale: '830 ms', '12.3 s', '5.2 min', '3.1 h'."""
    if seconds is None:
        return "-"
    magnitude = abs(seconds)
    if magnitude < 1.0:
        return f"{seconds * 1000:.3g} ms"
    if magnitude < 120.0:
        return f"{seconds:.3g} s"
    if magnitude < 2 * 3600.0:
        return f"{seconds / 60.0:.3g} min"
    return f"{seconds / 3600.0:.3g} h"


def format_cell(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e5 or abs(value) < 1e-3:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: Optional[str] = None,
) -> str:
    """Aligned monospace table."""
    cells = [[format_cell(value) for value in row] for row in rows]
    for row in cells:
        if len(row) != len(headers):
            raise ConfigurationError(
                "row width does not match header count"
            )
    widths = [
        max(len(str(header)), *(len(row[i]) for row in cells))
        if cells
        else len(str(header))
        for i, header in enumerate(headers)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(
        str(header).ljust(width) for header, width in zip(headers, widths)
    )
    lines.append(header_line)
    lines.append("  ".join("-" * width for width in widths))
    for row in cells:
        lines.append(
            "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
        )
    return "\n".join(lines)


def render_markdown_table(
    headers: Sequence[str], rows: Sequence[Sequence[Any]]
) -> str:
    """GitHub-flavoured markdown table (for EXPERIMENTS.md)."""
    lines = [
        "| " + " | ".join(str(h) for h in headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for row in rows:
        lines.append(
            "| " + " | ".join(format_cell(v) for v in row) + " |"
        )
    return "\n".join(lines)


def render_series(
    x_label: str,
    y_labels: Sequence[str],
    x_values: Sequence[Any],
    series: Sequence[Sequence[float]],
    title: Optional[str] = None,
) -> str:
    """Multi-series table: one row per x value, one column per series."""
    if len(y_labels) != len(series):
        raise ConfigurationError("y_labels and series must align")
    for column in series:
        if len(column) != len(x_values):
            raise ConfigurationError("series length must match x_values")
    headers = [x_label, *y_labels]
    rows = [
        [x, *(column[i] for column in series)]
        for i, x in enumerate(x_values)
    ]
    return render_table(headers, rows, title=title)

