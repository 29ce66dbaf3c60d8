"""Tests for the runtime IPC_ST estimator (Eqs. 11-13)."""

import pytest

from repro.core.counters import CounterSample
from repro.core.estimator import IpcStEstimator
from repro.errors import ConfigurationError


def sample(instructions, cycles, misses):
    return CounterSample(instructions, cycles, misses)


class TestIpcStEstimator:
    def test_basic_estimate(self):
        est = IpcStEstimator(num_threads=1, miss_lat=300)
        result = est.update(0, sample(15_000, 6_000, 1))
        assert result.ipc_st == pytest.approx(15_000 / 6_300)
        assert result.ipm == pytest.approx(15_000)
        assert result.cpm == pytest.approx(6_000)
        assert not result.carried_over

    def test_estimate_tracks_latest_window(self):
        est = IpcStEstimator(1, 300)
        est.update(0, sample(10_000, 4_000, 2))
        second = est.update(0, sample(1_000, 500, 5))
        assert est.estimate(0) == second
        assert second.ipm == pytest.approx(200)

    def test_empty_window_carries_previous_estimate(self):
        est = IpcStEstimator(1, 300)
        first = est.update(0, sample(15_000, 6_000, 1))
        carried = est.update(0, sample(0, 0, 0))
        assert carried.carried_over
        assert carried.ipc_st == pytest.approx(first.ipc_st)

    def test_empty_window_with_no_history_gives_null_estimate(self):
        est = IpcStEstimator(1, 300)
        result = est.update(0, sample(0, 0, 0))
        assert result.carried_over
        assert result.ipc_st == 0.0

    def test_update_all_respects_thread_order(self):
        est = IpcStEstimator(2, 300)
        results = est.update_all([sample(100, 50, 1), sample(200, 100, 1)])
        assert results[0].ipm == pytest.approx(100)
        assert results[1].ipm == pytest.approx(200)

    def test_update_all_rejects_wrong_count(self):
        est = IpcStEstimator(2, 300)
        with pytest.raises(ConfigurationError):
            est.update_all([sample(1, 1, 1)])

    def test_estimates_list_has_none_before_first_sample(self):
        est = IpcStEstimator(3, 300)
        assert est.estimates == [None, None, None]

    def test_each_window_uses_its_raw_estimate(self):
        est = IpcStEstimator(1, 300)
        est.update(0, sample(10_000, 5_000, 1))
        raw = est.update(0, sample(20_000, 10_000, 1))
        assert raw.ipm == pytest.approx(20_000)

    def test_window_latency_overrides_constant(self):
        est = IpcStEstimator(1, 300)
        result = est.update(0, sample(15_000, 6_000, 1), miss_lat=100.0)
        assert result.ipc_st == pytest.approx(15_000 / 6_100)
        assert result.miss_lat == 100.0

    def test_update_all_routes_latencies_per_thread(self):
        est = IpcStEstimator(2, 300)
        windows = [sample(15_000, 6_000, 1), sample(15_000, 6_000, 1)]
        fast, slow = est.update_all(windows, miss_lats=[100.0, 500.0])
        assert fast.ipc_st == pytest.approx(15_000 / 6_100)
        assert slow.ipc_st == pytest.approx(15_000 / 6_500)

    def test_update_all_rejects_wrong_latency_count(self):
        est = IpcStEstimator(2, 300)
        with pytest.raises(ConfigurationError):
            est.update_all(
                [sample(1, 1, 1), sample(1, 1, 1)], miss_lats=[300.0]
            )

    def test_carried_over_estimate_keeps_its_latency(self):
        est = IpcStEstimator(1, 300)
        est.update(0, sample(15_000, 6_000, 1), miss_lat=100.0)
        carried = est.update(0, sample(0, 0, 0))
        assert carried.carried_over
        assert carried.miss_lat == 100.0

    def test_window_after_carry_over_uses_its_raw_estimate(self):
        est = IpcStEstimator(1, 300)
        est.update(0, sample(10_000, 5_000, 1))
        est.update(0, sample(0, 0, 0))
        result = est.update(0, sample(20_000, 10_000, 2))
        assert not result.carried_over
        assert result.ipc_st == pytest.approx(20_000 / 10_600)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_threads": 0, "miss_lat": 300},
            {"num_threads": 1, "miss_lat": -1},
        ],
    )
    def test_rejects_bad_configuration(self, kwargs):
        with pytest.raises(ConfigurationError):
            IpcStEstimator(**kwargs)
