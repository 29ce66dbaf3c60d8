"""Policy parameters that are NaN or infinite are refused up front.

A NaN passes every ``x <= 0`` check, so each of these used to be
accepted and then silently change the mechanism: a NaN weight turned
every quota into its IPM, an infinite weight left the other thread a
one-instruction quota, a NaN deficit cap was ignored, and a NaN
``Delta`` never fired, so the policy never sampled.
"""

import math

import pytest

from repro.core.controller import FairnessParams
from repro.core.deficit import DeficitPolicy
from repro.core.estimator import ThreadEstimate
from repro.core.lfoc import LfocClusterPolicy
from repro.core.policies import PolicyConfig
from repro.core.quota import quotas_from_estimates
from repro.errors import ConfigurationError

NAN = math.nan
INF = math.inf


def _estimates():
    # Eq. 13 single-thread IPCs 1.0 and 0.5; the quotas are [720, 360]
    # at F = 1.
    return [
        ThreadEstimate(ipc_st=1.0, ipm=1440.0, cpm=1140.0),
        ThreadEstimate(ipc_st=0.5, ipm=360.0, cpm=420.0),
    ]


class TestFairnessParams:
    def test_rejects_nan_weight(self):
        with pytest.raises(ConfigurationError):
            FairnessParams(fairness_target=1.0, weights=(NAN, 1.0))

    def test_rejects_inf_weight(self):
        with pytest.raises(ConfigurationError):
            FairnessParams(fairness_target=1.0, weights=(INF, 1.0))

    def test_rejects_nan_deficit_cap(self):
        with pytest.raises(ConfigurationError):
            FairnessParams(fairness_target=1.0, deficit_cap=NAN)

    def test_rejects_inf_deficit_cap(self):
        with pytest.raises(ConfigurationError):
            FairnessParams(fairness_target=1.0, deficit_cap=INF)

    def test_rejects_non_positive_deficit_cap(self):
        with pytest.raises(ConfigurationError):
            FairnessParams(fairness_target=1.0, deficit_cap=0.0)

    def test_finite_settings_are_accepted(self):
        params = FairnessParams(
            fairness_target=1.0, weights=(2.0, 1.0), deficit_cap=5_000.0
        )
        assert params.weights == (2.0, 1.0)


class TestQuotasFromEstimates:
    def test_finite_weights_are_accepted(self):
        assert quotas_from_estimates(
            _estimates(), 1.0, 300.0, weights=[1.0, 1.0]
        ) == pytest.approx([720.0, 360.0])

    def test_rejects_nan_weight(self):
        with pytest.raises(ConfigurationError):
            quotas_from_estimates(_estimates(), 1.0, 300.0, weights=[NAN, 1.0])

    def test_rejects_inf_weight(self):
        with pytest.raises(ConfigurationError):
            quotas_from_estimates(_estimates(), 1.0, 300.0, weights=[INF, 1.0])


class TestDeficitPolicyConstructor:
    def test_rejects_nan_cap(self):
        with pytest.raises(ConfigurationError):
            DeficitPolicy(2, cap=NAN)

    def test_rejects_nan_sample_period(self):
        with pytest.raises(ConfigurationError):
            DeficitPolicy(2, sample_period=NAN)

    def test_rejects_nan_quota(self):
        with pytest.raises(ConfigurationError):
            DeficitPolicy(2, quota=NAN)


class TestLfocClusterPolicy:
    def test_rejects_nan_miss_lat(self):
        with pytest.raises(ConfigurationError):
            LfocClusterPolicy(2, 1.0, miss_lat=NAN)

    def test_rejects_nan_sample_period(self):
        with pytest.raises(ConfigurationError):
            LfocClusterPolicy(2, 1.0, sample_period=NAN)

    def test_rejects_inf_sample_period(self):
        with pytest.raises(ConfigurationError):
            LfocClusterPolicy(2, 1.0, sample_period=INF)


class TestPolicyConfig:
    def test_rejects_nan_miss_lat(self):
        with pytest.raises(ConfigurationError):
            PolicyConfig("lfoc-cluster", miss_lat=NAN)

    def test_rejects_nan_sample_period(self):
        with pytest.raises(ConfigurationError):
            PolicyConfig("lfoc-cluster", sample_period=NAN)

    def test_rejects_inf_sample_period(self):
        with pytest.raises(ConfigurationError):
            PolicyConfig("fairness", sample_period=INF)

    def test_rejects_inf_miss_lat(self):
        with pytest.raises(ConfigurationError):
            PolicyConfig("fairness", miss_lat=INF)
