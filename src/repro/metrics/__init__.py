"""Measurement and reporting helpers for SOE runs."""

from repro.metrics.ascii_chart import bar_chart, line_chart
from repro.metrics.report import (
    FairnessSummary,
    summarize_achieved_fairness,
    truncated_fairness,
)
from repro.metrics.summary import mean, stdev
from repro.metrics.throughput import soe_speedup_over_single_thread

__all__ = [
    "FairnessSummary",
    "bar_chart",
    "line_chart",
    "mean",
    "soe_speedup_over_single_thread",
    "stdev",
    "summarize_achieved_fairness",
    "truncated_fairness",
]
