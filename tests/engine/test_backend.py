"""Tests for :class:`SoeRunSpec`: validation and policy construction."""

import pytest

from repro.core.controller import FairnessController, FairnessParams
from repro.core.policies import PolicyConfig
from repro.engine.backend import SoeRunSpec
from repro.engine.soe import RunLimits, SoeParams, run_soe
from repro.errors import ConfigurationError
from repro.workloads.synthetic import uniform_stream

LIMITS = RunLimits(min_instructions=100_000.0, warmup_instructions=20_000.0)


def _spec(seed=0, policy=None):
    return SoeRunSpec(
        streams=(
            uniform_stream(2.0, 8_000, seed=seed),
            uniform_stream(1.0, 600, seed=seed + 1),
        ),
        params=SoeParams(),
        limits=LIMITS,
        policy=policy,
    )


class TestSoeRunSpec:
    def test_requires_two_threads(self):
        with pytest.raises(ConfigurationError, match="at least two"):
            SoeRunSpec(streams=(uniform_stream(1.0, 1_000),))

    def test_num_threads(self):
        streams = tuple(uniform_stream(1.0, 1_000, seed=i) for i in range(3))
        assert SoeRunSpec(streams=streams).num_threads == 3

    def test_make_policy_none_for_baseline(self):
        assert _spec().make_policy() is None

    def test_make_policy_builds_fresh_controller(self):
        params = FairnessParams(fairness_target=0.5)
        spec = _spec(policy=PolicyConfig(name="fairness", level=0.5))
        first = spec.make_policy()
        second = spec.make_policy()
        assert isinstance(first, FairnessController)
        assert first is not second
        bare = FairnessController(2, params)
        assert first.params == bare.params

    def test_fairness_policy_config_runs_like_fairness_params(self):
        # The grid selects the paper mechanism through the policy
        # registry; it must run exactly like a bare FairnessController.
        params = FairnessParams(
            fairness_target=0.5, miss_lat=300.0, sample_period=50_000.0
        )
        spec = _spec(
            seed=7,
            policy=PolicyConfig(
                name="fairness",
                level=params.fairness_target,
                miss_lat=params.miss_lat,
                sample_period=params.sample_period,
            ),
        )
        registered = spec.make_policy()
        assert registered.params == params
        results = [
            run_soe(spec.streams, policy, spec.params, spec.limits)
            for policy in (FairnessController(2, params), registered)
        ]
        assert results[0] == results[1]
