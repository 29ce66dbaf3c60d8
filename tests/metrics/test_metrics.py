"""Tests for the metrics helpers."""

import pytest

from repro.errors import ConfigurationError
from repro.metrics.report import (
    summarize_achieved_fairness,
    truncated_fairness,
)
from repro.metrics.summary import mean, stdev
from repro.metrics.throughput import soe_speedup_over_single_thread


class TestThroughputMetrics:
    def test_speedup_over_single_thread(self):
        # Total SOE IPC 2.4 vs mean ST IPC of 2.0 -> 1.2x.
        assert soe_speedup_over_single_thread(2.4, [2.5, 1.5]) == pytest.approx(1.2)

    def test_speedup_below_one_possible(self):
        assert soe_speedup_over_single_thread(1.0, [2.0, 2.0]) == pytest.approx(0.5)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ConfigurationError):
            soe_speedup_over_single_thread(1.0, [])
        with pytest.raises(ConfigurationError):
            soe_speedup_over_single_thread(1.0, [0.0])


class TestTruncatedFairness:
    def test_truncates_above_target(self):
        assert truncated_fairness(0.9, 0.5) == pytest.approx(0.5)

    def test_keeps_below_target(self):
        assert truncated_fairness(0.3, 0.5) == pytest.approx(0.3)

    def test_no_truncation_for_f_zero(self):
        assert truncated_fairness(0.9, 0.0) == pytest.approx(0.9)

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            truncated_fairness(1.5, 0.5)
        with pytest.raises(ConfigurationError):
            truncated_fairness(0.5, 2.0)

    def test_clamps_float_noise_above_one(self):
        # min/max speedup ratios can land a few ulps above 1.0; that is
        # measurement noise, not a computation bug.
        assert truncated_fairness(1.0 + 5e-8, 0.5) == pytest.approx(0.5)
        assert truncated_fairness(1.0 + 5e-8, 0.0) == pytest.approx(1.0)
        assert truncated_fairness(1.0 + 9e-7, 1.0) == pytest.approx(1.0)

    def test_clamps_float_noise_below_zero(self):
        assert truncated_fairness(-5e-8, 0.5) == pytest.approx(0.0)

    def test_still_rejects_gross_violations(self):
        with pytest.raises(ConfigurationError):
            truncated_fairness(1.0 + 1e-5, 0.5)
        with pytest.raises(ConfigurationError):
            truncated_fairness(-1e-5, 0.5)


class TestSummarizeAchievedFairness:
    def test_mean_and_stdev(self):
        summary = summarize_achieved_fairness([0.4, 0.5, 0.6], 1.0)
        assert summary.mean == pytest.approx(0.5)
        assert summary.stdev == pytest.approx(0.1)
        assert summary.count == 3

    def test_truncation_removes_fair_run_bias(self):
        # Two runs already fair (1.0) and one poor (0.2) at F=0.25:
        # without truncation the mean would be pulled towards 1.
        summary = summarize_achieved_fairness([1.0, 1.0, 0.2], 0.25)
        assert summary.mean == pytest.approx((0.25 + 0.25 + 0.2) / 3)

    def test_single_run(self):
        summary = summarize_achieved_fairness([0.7], 1.0)
        assert summary.stdev == 0.0

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            summarize_achieved_fairness([], 0.5)


class TestSummaryStats:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)

    def test_stdev_single_value(self):
        assert stdev([5.0]) == 0.0

    def test_empty_rejected(self):
        for fn in (mean, stdev):
            with pytest.raises(ConfigurationError):
                fn([])
