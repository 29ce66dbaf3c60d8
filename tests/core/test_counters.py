"""Tests for the per-thread hardware counters (Section 3.1): the
:class:`CounterSample` window and its accumulation in
:class:`DeficitPolicy`."""

import pytest

from repro.core.counters import CounterSample
from repro.core.deficit import DeficitPolicy
from repro.errors import ConfigurationError


class TestCounterSample:
    def test_ipm_eq11(self):
        sample = CounterSample(instructions=30_000, cycles=12_000, misses=2)
        assert sample.ipm == pytest.approx(15_000)

    def test_cpm_eq12(self):
        sample = CounterSample(instructions=30_000, cycles=12_000, misses=2)
        assert sample.cpm == pytest.approx(6_000)

    def test_zero_misses_uses_max_misses_one(self):
        # The paper's max(Misses, 1) guard.
        sample = CounterSample(instructions=5_000, cycles=2_000, misses=0)
        assert sample.ipm == pytest.approx(5_000)
        assert sample.cpm == pytest.approx(2_000)

    def test_estimated_ipc_st_eq13(self):
        sample = CounterSample(instructions=15_000, cycles=6_000, misses=1)
        assert sample.estimated_single_thread_ipc(300) == pytest.approx(
            15_000 / 6_300
        )

    def test_zero_miss_window_underestimates_ipc_st(self):
        # Section 3.1: with Misses = 1 substituted, the estimate is low
        # but usable.
        sample = CounterSample(instructions=5_000, cycles=2_000, misses=0)
        estimate = sample.estimated_single_thread_ipc(300)
        true_no_miss_ipc = 2.5
        assert 0 < estimate < true_no_miss_ipc

    def test_empty_sample(self):
        sample = CounterSample(0, 0, 0)
        assert sample.is_empty
        assert sample.estimated_single_thread_ipc(300) == 0.0

    def test_rejects_negative_counts(self):
        with pytest.raises(ConfigurationError):
            CounterSample(-1, 0, 0)
        with pytest.raises(ConfigurationError):
            CounterSample(0, -1, 0)
        with pytest.raises(ConfigurationError):
            CounterSample(0, 0, -1)


class TestHardwareCounters:
    """The three per-thread counters as :class:`DeficitPolicy` keeps
    them: fed by ``on_retired``/``on_miss``, closed into one
    :class:`CounterSample` per thread at each ``Delta`` boundary."""

    def test_accumulates_retirement(self):
        policy = DeficitPolicy(1)
        policy.on_retired(0, 100, 40)
        policy.on_retired(0, 200, 90)
        (sample,) = policy.sample_and_reset(0.0)
        assert sample.instructions == pytest.approx(300)
        assert sample.cycles == pytest.approx(130)

    def test_counts_misses(self):
        policy = DeficitPolicy(2)
        policy.on_miss(1, 0.0)
        policy.on_miss(1, 5.0, latency=300.0)
        first, second = policy.sample_and_reset(0.0)
        assert first.misses == 0
        assert second.misses == 2

    def test_sample_and_reset_clears_window(self):
        policy = DeficitPolicy(1)
        policy.on_retired(0, 500, 250)
        policy.on_miss(0, 0.0)
        (first,) = policy.sample_and_reset(0.0)
        assert first.instructions == pytest.approx(500)
        assert first.misses == 1
        (second,) = policy.sample_and_reset(0.0)
        assert second.is_empty
        assert second.misses == 0

    def test_windows_are_independent(self):
        policy = DeficitPolicy(1)
        policy.on_retired(0, 100, 50)
        policy.sample_and_reset(0.0)
        policy.on_retired(0, 7, 3)
        (sample,) = policy.sample_and_reset(0.0)
        assert sample.instructions == pytest.approx(7)

    def test_rejects_negative_retirement(self):
        policy = DeficitPolicy(1)
        with pytest.raises(ConfigurationError):
            policy.on_retired(0, -1, 1)
        with pytest.raises(ConfigurationError):
            policy.on_retired(0, 1, -1)

    def test_rejects_non_finite_retirement(self):
        policy = DeficitPolicy(1)
        with pytest.raises(ConfigurationError):
            policy.on_retired(0, float("inf"), 1)
        with pytest.raises(ConfigurationError):
            policy.on_retired(0, 1, float("inf"))
        with pytest.raises(ConfigurationError):
            policy.on_retired(0, float("nan"), 1)
        with pytest.raises(ConfigurationError):
            policy.on_retired(0, 1, float("nan"))
        # A refused call leaves the counters untouched.
        (sample,) = policy.sample_and_reset(0.0)
        assert sample.is_empty
        assert sample.cycles == 0.0
