"""Tests for the IPSw quota computation (Eq. 9)."""

import math

import pytest

from repro.core.estimator import ThreadEstimate
from repro.core.quota import MIN_QUOTA, quotas_from_estimates
from repro.errors import ConfigurationError


def estimate(ipm, cpm, miss_lat=300.0):
    return ThreadEstimate(ipm=ipm, cpm=cpm, ipc_st=ipm / (cpm + miss_lat))


class TestQuotasFromEstimates:
    def test_example2_quotas_at_f1(self):
        estimates = [estimate(15_000, 6_000), estimate(1_000, 400)]
        quotas = quotas_from_estimates(estimates, 1.0, 300)
        assert quotas[0] == pytest.approx(1_666.7, abs=0.5)
        assert quotas[1] == pytest.approx(1_000)

    def test_f_zero_means_no_forced_switches(self):
        estimates = [estimate(15_000, 6_000), estimate(1_000, 400)]
        assert quotas_from_estimates(estimates, 0.0, 300) == [math.inf, math.inf]

    def test_quota_scales_inversely_with_f(self):
        estimates = [estimate(15_000, 6_000), estimate(1_000, 400)]
        q1 = quotas_from_estimates(estimates, 1.0, 300)[0]
        q_quarter = quotas_from_estimates(estimates, 0.25, 300)[0]
        assert q_quarter == pytest.approx(4 * q1)

    def test_quota_capped_by_ipm(self):
        estimates = [estimate(15_000, 6_000), estimate(1_000, 400)]
        quotas = quotas_from_estimates(estimates, 0.25, 300)
        assert quotas[1] == pytest.approx(1_000)  # still capped by IPM

    def test_unknown_thread_gets_infinite_quota(self):
        # A thread with no usable estimate must never be force-switched.
        estimates = [ThreadEstimate(0.0, 0.0, 0.0), estimate(1_000, 400)]
        quotas = quotas_from_estimates(estimates, 1.0, 300)
        assert quotas[0] == math.inf
        assert math.isfinite(quotas[1])

    def test_all_unknown_threads(self):
        estimates = [ThreadEstimate(0.0, 0.0, 0.0)] * 2
        assert quotas_from_estimates(estimates, 1.0, 300) == [math.inf, math.inf]

    def test_cpm_min_excludes_unknown_threads(self):
        # The unknown thread's cpm (0.0) must not poison CPM_min.
        estimates = [ThreadEstimate(0.0, 0.0, 0.0), estimate(15_000, 6_000)]
        quotas = quotas_from_estimates(estimates, 1.0, 300)
        expected = estimates[1].ipc_st * (6_000 + 300)
        assert quotas[1] == pytest.approx(min(15_000, expected))

    def test_min_quota_floor(self):
        # A pathological estimate cannot produce a sub-instruction quota.
        tiny = ThreadEstimate(ipm=0.5, cpm=10_000.0, ipc_st=0.00005)
        other = estimate(1_000, 400)
        quotas = quotas_from_estimates([tiny, other], 1.0, 300)
        assert quotas[0] == MIN_QUOTA == 1.0

    def test_symmetric_threads_get_equal_quotas(self):
        estimates = [estimate(5_000, 2_000)] * 3
        quotas = quotas_from_estimates(estimates, 0.5, 300)
        assert quotas[0] == quotas[1] == quotas[2]

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            quotas_from_estimates([], 0.5, 300)

    def test_rejects_bad_target(self):
        with pytest.raises(ConfigurationError):
            quotas_from_estimates([estimate(100, 50)], 2.0, 300)
