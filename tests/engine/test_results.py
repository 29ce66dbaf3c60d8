"""Tests for run result types."""

import pytest

from repro.engine.results import SingleThreadResult, SoeRunResult, ThreadStats
from repro.errors import ConfigurationError


def make_result():
    return SoeRunResult(
        cycles=10_000.0,
        threads=(
            ThreadStats(retired=20_000, run_cycles=8_000, misses=10,
                        miss_switches=10, forced_switches=5, cycle_quota_switches=1),
            ThreadStats(retired=5_000, run_cycles=1_500, misses=20,
                        miss_switches=20, forced_switches=0, cycle_quota_switches=0),
        ),
        idle_cycles=100.0,
        switch_overhead_cycles=400.0,
    )


class TestSoeRunResult:
    def test_per_thread_ipcs_share_the_window(self):
        result = make_result()
        assert result.ipcs == [pytest.approx(2.0), pytest.approx(0.5)]

    def test_total_ipc(self):
        assert make_result().total_ipc == pytest.approx(2.5)

    def test_total_ipc_adds_left_to_right(self):
        """Not compensated, as the builtin ``sum`` of floats is from
        Python 3.12 on, so the last bit is the same on every version."""
        thread = ThreadStats(retired=1, run_cycles=1, misses=0, miss_switches=0,
                             forced_switches=0, cycle_quota_switches=0)
        result = SoeRunResult(cycles=10.0, threads=(thread,) * 10,
                              idle_cycles=0.0, switch_overhead_cycles=0.0)
        assert result.ipcs == [0.1] * 10
        assert result.total_ipc == 0.9999999999999999

    def test_switch_counts(self):
        result = make_result()
        assert result.total_switches == 36
        assert result.forced_switches == 5

    def test_forced_switches_per_kcycle(self):
        assert make_result().forced_switches_per_kcycle() == pytest.approx(0.5)

    def test_speedups_and_fairness(self):
        result = make_result()
        st = [2.5, 2.0]
        assert result.speedups(st) == [pytest.approx(0.8), pytest.approx(0.25)]
        assert result.achieved_fairness(st) == pytest.approx(0.3125)

    def test_rejects_empty_window(self):
        with pytest.raises(ConfigurationError):
            SoeRunResult(cycles=0.0, threads=(), idle_cycles=0, switch_overhead_cycles=0)


class TestThreadStats:
    def test_switches_sum(self):
        stats = ThreadStats(1, 1, 1, miss_switches=3, forced_switches=2,
                            cycle_quota_switches=1)
        assert stats.switches == 6


class TestSingleThreadResult:
    def test_ipc(self):
        result = SingleThreadResult(retired=700, cycles=1_000, misses=1)
        assert result.ipc == pytest.approx(0.7)

    def test_empty_window_rejected(self):
        with pytest.raises(ConfigurationError):
            SingleThreadResult(retired=0, cycles=0, misses=0).ipc
