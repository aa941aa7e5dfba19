"""Metrics, statistics and plain-text report rendering."""

from repro.metrics.report import format_duration, render_series, render_table
from repro.metrics.stats import bootstrap_ci, mean, median

__all__ = [
    # Statistics
    "bootstrap_ci",
    "mean",
    "median",
    # Reports
    "format_duration",
    "render_series",
    "render_table",
]
