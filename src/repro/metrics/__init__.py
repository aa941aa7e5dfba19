"""Metrics, statistics and plain-text report rendering."""

from repro.metrics.report import (
    format_cell,
    format_duration,
    render_markdown_table,
    render_series,
    render_table,
)
from repro.metrics.stats import (
    RunningStats,
    bootstrap_ci,
    mean,
    median,
)

__all__ = [
    "RunningStats",
    "bootstrap_ci",
    "format_cell",
    "format_duration",
    "mean",
    "median",
    "render_markdown_table",
    "render_series",
    "render_table",
]
