"""Tests for analysis utilities: distributions, metrics, reporting."""

from __future__ import annotations

import math

import pytest

from repro.analysis import (
    PAPER_BUCKETS_MIB,
    bar_chart,
    candlestick,
    moving_average,
    normalize_series,
    percentile,
    render_table,
    size_histogram,
    sparkline,
)
from repro.errors import ValidationError
from repro.units import MiB


class TestSizeHistogram:
    def test_paper_buckets(self):
        sizes = [MiB, 20 * MiB, 100 * MiB, 300 * MiB, 600 * MiB]
        hist = size_histogram(sizes)
        assert hist["<16MiB"] == 1
        assert hist["16-32MiB"] == 1
        assert hist["64-128MiB"] == 1
        assert hist["256-512MiB"] == 1
        assert hist[">=512MiB"] == 1
        assert sum(hist.values()) == len(sizes)

    def test_default_edges_match_paper(self):
        assert PAPER_BUCKETS_MIB == (16, 32, 64, 128, 256, 512)


class TestPercentiles:
    def test_linear_interpolation(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == 2.5

    def test_single_value(self):
        assert percentile([7.0], 25) == 7.0

    def test_unsorted_input(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            percentile([], 50)
        with pytest.raises(ValidationError):
            percentile([1.0], 101)


class TestCandlestick:
    def test_five_numbers(self):
        values = list(map(float, range(1, 101)))
        summary = candlestick(values)
        assert summary.minimum == 1.0
        assert summary.maximum == 100.0
        assert summary.median == pytest.approx(50.5)
        assert summary.p25 == pytest.approx(25.75)
        assert summary.p75 == pytest.approx(75.25)
        assert summary.spread == 99.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            candlestick([])


class TestSeriesTransforms:
    def test_normalize(self):
        assert normalize_series([10.0, 20.0, 30.0]) == [0.0, 0.5, 1.0]
        assert normalize_series([5.0, 5.0]) == [0.0, 0.0]
        assert normalize_series([]) == []

    def test_moving_average(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert moving_average(values, 2) == [1.0, 1.5, 2.5, 3.5]
        assert moving_average(values, 1) == values

    def test_moving_average_validation(self):
        with pytest.raises(ValidationError):
            moving_average([1.0], 0)


class TestRenderTable:
    def test_alignment(self):
        text = render_table(["name", "value"], [["a", 1], ["bbbb", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "name" in lines[0]
        assert set(lines[1]) <= {"-", " "}

    def test_row_width_validated(self):
        with pytest.raises(ValidationError):
            render_table(["a", "b"], [["only-one"]])


class TestCharts:
    def test_bar_chart_scales_to_peak(self):
        chart = bar_chart(["x", "y"], [10.0, 5.0], width=10)
        lines = chart.splitlines()
        assert lines[0].count("█") == 10
        assert lines[1].count("█") == 5

    def test_bar_chart_zero_values(self):
        chart = bar_chart(["x"], [0.0])
        assert "█" not in chart

    def test_bar_chart_validation(self):
        with pytest.raises(ValidationError):
            bar_chart(["a"], [1.0, 2.0])
        with pytest.raises(ValidationError):
            bar_chart(["a"], [1.0], width=0)

    def test_sparkline(self):
        line = sparkline([0.0, 1.0])
        assert line[0] == "▁"
        assert line[-1] == "█"
        assert sparkline([]) == ""
        assert sparkline([2.0, 2.0]) == "▁▁"
