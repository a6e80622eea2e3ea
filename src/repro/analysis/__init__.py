"""Analysis and reporting utilities for experiments.

Turns telemetry into the paper's figures: file-size histograms with the
Figure 1/2 bucket edges, candlestick (min/p25/median/p75/max) summaries for
Figure 8, min-max-normalised and smoothed series for Figures 10–11, and
ASCII renderers so every bench prints a readable chart next to its numbers.
"""

from repro.analysis.distributions import (
    PAPER_BUCKETS_MIB,
    candlestick,
    percentile,
    size_histogram,
)
from repro.analysis.metrics import (
    moving_average,
    normalize_series,
    reduction_efficiency,
    task_failure_rate,
    write_amplification,
)
from repro.analysis.reporting import bar_chart, render_table, sparkline

__all__ = [
    "PAPER_BUCKETS_MIB",
    "bar_chart",
    "candlestick",
    "moving_average",
    "normalize_series",
    "percentile",
    "reduction_efficiency",
    "render_table",
    "size_histogram",
    "sparkline",
    "task_failure_rate",
    "write_amplification",
]
