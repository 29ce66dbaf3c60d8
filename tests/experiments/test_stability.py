"""Tests for the seed-stability experiment."""

import pytest

from repro.experiments import stability
from repro.experiments.common import EvalConfig
from repro.experiments.runner import ExecutionSettings, execution


@pytest.fixture(scope="module")
def result():
    return stability.run(seeds=(0, 1), config=EvalConfig.quick())


class TestStability:
    def test_one_outcome_per_seed(self, result):
        assert [o.seed for o in result.outcomes] == [0, 1]

    def test_speedup_aggregates_are_stable(self, result):
        mean_value, std = result.speedup_spread(0.0)
        assert mean_value > 0.1
        assert std < 0.1  # seeds change the suite only marginally

    def test_degradation_ordering_holds_for_every_seed(self, result):
        for outcome in result.outcomes:
            degradations = [
                outcome.degradation_by_level[level]
                for level in sorted(outcome.degradation_by_level)
            ]
            assert degradations == sorted(degradations)

    def test_unfair_fraction_stable_above_third(self, result):
        mean_value, _ = result.unfair_fraction_spread()
        assert mean_value >= 1 / 3 - 0.07

    def test_truncated_means_near_targets_for_all_seeds(self, result):
        for level in (0.25, 0.5):
            mean_value, std = result.truncated_mean_spread(level)
            assert mean_value == pytest.approx(level, rel=0.3)
            assert std < 0.05

    def test_render(self, result):
        text = stability.render(result)
        assert "Seed stability" in text
        assert "±" in text


def test_default_scale_aggregates_are_seed_stable():
    # The full default-scale grid under three seeds: the headline
    # degradations and the unfair-run fraction barely move.
    with execution(ExecutionSettings(jobs=2)):
        full = stability.run(seeds=(0, 1, 2))
    for level in (0.25, 0.5, 1.0):
        _mean, std = full.degradation_spread(level)
        assert std < 0.01
    _mean, std = full.unfair_fraction_spread()
    assert std < 0.15
