"""Tests for the Figure 5 detailed-examination experiment."""

import pytest

from repro.experiments import fig5
from repro.experiments.common import EvalConfig


@pytest.fixture(scope="module")
def result():
    config = EvalConfig(
        sample_period=100_000.0,
        min_instructions=600_000.0,
        warmup_instructions=0.0,
        st_min_instructions=400_000.0,
    )
    return fig5.run(config)


class TestSingleThreadTimeline:
    def test_ipc_over_full_region_matches_eq1(self):
        from repro.workloads.synthetic import uniform_stream

        timeline = fig5.SingleThreadTimeline(
            uniform_stream(2.5, 1_000), miss_lat=300, total_instructions=100_000
        )
        assert timeline.ipc_over(0, 50_000) == pytest.approx(1_000 / 700, rel=1e-3)

    def test_partial_region_interpolates(self):
        from repro.workloads.synthetic import uniform_stream

        timeline = fig5.SingleThreadTimeline(
            uniform_stream(2.5, 1_000), miss_lat=300, total_instructions=10_000
        )
        # The timeline spreads each segment's miss stall across the
        # segment (breakpoints only at segment ends), so any sub-segment
        # region reports the segment's effective rate, Eq. 1's value.
        ipc = timeline.ipc_over(100, 300)
        assert ipc == pytest.approx(1_000 / 700, rel=1e-3)

    def test_empty_region_is_zero(self):
        from repro.workloads.synthetic import uniform_stream

        timeline = fig5.SingleThreadTimeline(
            uniform_stream(2.5, 1_000), miss_lat=300, total_instructions=10_000
        )
        assert timeline.ipc_over(500, 500) == 0.0


class TestFig5:
    def test_series_are_aligned(self, result):
        n = len(result.times)
        assert n > 3
        assert len(result.estimated_ipc_st) == n
        assert len(result.real_ipc_st) == n
        assert len(result.speedups_enforced) == n
        assert len(result.fairness) == n

    def test_estimates_track_real_ipc_st(self, result):
        # Paper Section 5.1.1: the estimate closely tracks the real
        # value; we require agreement within ~25% on average.
        for thread in range(2):
            assert result.estimation_error(thread) < 0.25

    def test_estimates_usually_slightly_lower(self, result):
        # gcc has a 15% miss-overlap, so its real IPC_ST sits above the
        # full-latency estimate most windows.
        assert result.estimate_is_usually_lower(0)

    def test_enforcement_rescues_the_starved_thread(self, result):
        # Paper: gcc runs 20x faster with F = 1/4 than without; our
        # substitute workloads give a smaller but still large factor.
        assert result.starved_thread_improvement() > 2.0

    def test_fairness_series_is_bounded(self, result):
        for value in result.fairness:
            assert 0.0 <= value <= 1.0 + 1e-9

    def test_enforced_speedups_respect_target_loosely(self, result):
        # Per-interval fairness fluctuates (the paper shows transient
        # dips at phase changes) but the median should be near F.
        values = sorted(result.fairness)
        median = values[len(values) // 2]
        assert median == pytest.approx(0.25, abs=0.13)

    def test_render(self, result):
        text = fig5.render(result)
        assert "gcc:eon" in text
        assert "estimation error" in text
