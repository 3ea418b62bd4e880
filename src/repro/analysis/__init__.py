"""Measurement helpers: tables, figure-shaped text output and latency
summaries."""

from repro.analysis.report import Table, bar_chart, format_series
from repro.analysis.metrics import (
    LatencySummary,
    jain_fairness,
    percent_improvement,
    percentile,
    speedup,
    summarize_latencies,
)

__all__ = [
    "Table",
    "bar_chart",
    "format_series",
    "speedup",
    "percent_improvement",
    "percentile",
    "LatencySummary",
    "summarize_latencies",
    "jain_fairness",
]
