"""Tests for plain-text report rendering."""

import pytest

from repro.errors import ConfigurationError
from repro.metrics.report import (
    format_cell,
    format_duration,
    render_markdown_table,
    render_series,
    render_table,
)


class TestFormatDuration:
    def test_milliseconds(self):
        assert format_duration(0.005) == "5 ms"

    def test_seconds(self):
        assert format_duration(42.0) == "42 s"

    def test_minutes(self):
        assert format_duration(600.0) == "10 min"

    def test_hours(self):
        assert format_duration(7200.0) == "2 h"

    def test_none(self):
        assert format_duration(None) == "-"

    def test_negative_durations_scale_by_magnitude(self):
        assert format_duration(-600.0) == "-10 min"
        assert format_duration(-0.005) == "-5 ms"


class TestFormatCell:
    def test_none(self):
        assert format_cell(None) == "-"

    def test_zero(self):
        assert format_cell(0.0) == "0"

    def test_small_float_scientific(self):
        assert "e" in format_cell(1e-6)

    def test_plain_float(self):
        assert format_cell(3.14159) == "3.142"

    def test_string_passthrough(self):
        assert format_cell("abc") == "abc"

    def test_large_float_scientific(self):
        assert format_cell(123456.0) == "1.235e+05"
        assert format_cell(-2.5e7) == "-2.500e+07"

    def test_ints_are_never_rounded(self):
        assert format_cell(1234567) == "1234567"


class TestRenderTable:
    def test_alignment_and_content(self):
        text = render_table(
            ["name", "value"],
            [["a", 1.0], ["bb", 22.5]],
            title="My table",
        )
        lines = text.splitlines()
        assert lines[0] == "My table"
        assert "name" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert "22.5" in lines[4]

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            render_table(["a", "b"], [["only-one"]])

    def test_empty_rows(self):
        text = render_table(["h1", "h2"], [])
        assert "h1" in text


class TestMarkdownTable:
    def test_structure(self):
        text = render_markdown_table(["a", "b"], [[1, 2]])
        lines = text.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "|---|---|"
        assert lines[2] == "| 1 | 2 |"


class TestRenderSeries:
    def test_multi_series_table(self):
        text = render_series(
            "V",
            ["makespan", "util"],
            [1, 2, 4],
            [[100.0, 50.0, 25.0], [0.1, 0.2, 0.4]],
        )
        assert "makespan" in text
        assert "0.4" in text

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            render_series("x", ["y"], [1, 2], [[1.0]])
        with pytest.raises(ConfigurationError):
            render_series("x", ["y", "z"], [1], [[1.0]])

