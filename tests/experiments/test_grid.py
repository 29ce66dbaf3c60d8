"""Tests for the shared evaluation grid and Figures 6-8.

The grid runs at the quick scale here; the shape assertions are the
ones that must hold at any scale (orderings, ranges), not the absolute
paper numbers (tests/conformance/ checks those at the default scale).
"""

import pytest

from repro.experiments import fig6, fig7, fig8
from repro.experiments.common import EvalConfig
from repro.experiments.runner import compute_pair, run_grid
from repro.workloads.pairs import BenchmarkPair, evaluation_pairs


@pytest.fixture(scope="module")
def config():
    return EvalConfig(
        sample_period=100_000.0,
        min_instructions=500_000.0,
        warmup_instructions=250_000.0,
        st_min_instructions=400_000.0,
    )


@pytest.fixture(scope="module")
def grid(config):
    return run_grid(config).results


class TestPairGrid:
    def test_grid_covers_all_pairs_and_levels(self, grid, config):
        assert len(grid) == 16
        for pair_result in grid:
            assert set(pair_result.runs) == set(config.fairness_levels)
            assert len(pair_result.ipc_st) == 2

    def test_baseline_normalization_is_one(self, grid):
        for pair_result in grid:
            assert pair_result.normalized_throughput(0.0) == pytest.approx(1.0)

    def test_single_pair_runner(self, config):
        result = compute_pair(BenchmarkPair("gcc", "eon"), config)
        assert result.pair.label == "gcc:eon"
        assert result.baseline.total_ipc > 0

    def test_enforcement_raises_fairness_on_unfair_pairs(self, grid):
        for pair_result in grid:
            base = pair_result.achieved_fairness(0.0)
            if base < 0.2:
                assert pair_result.achieved_fairness(1.0) > base * 2


class TestFig6:
    def test_speedup_ladder_decreases_with_f(self, grid, config):
        result = fig6.run(config, pairs=grid)
        ladder = result.speedup_ladder()
        values = [ladder[level] for level in sorted(ladder)]
        assert values == sorted(values, reverse=True)

    def test_baseline_speedup_is_positive(self, grid, config):
        result = fig6.run(config, pairs=grid)
        assert 0.1 < result.average_speedup(0.0) < 0.5

    def test_render(self, grid, config):
        text = fig6.render(fig6.run(config, pairs=grid))
        assert "gcc:eon" in text
        assert "average SOE speedup" in text


class TestFig7:
    def test_degradation_increases_with_f(self, grid, config):
        result = fig7.run(config, pairs=grid)
        degradations = [
            result.average_degradation(level) for level in result.enforced_levels
        ]
        assert degradations == sorted(degradations)

    def test_forced_switch_rate_increases_with_f(self, grid, config):
        result = fig7.run(config, pairs=grid)
        rates = [
            result.average_forced_switch_rate(level)
            for level in result.enforced_levels
        ]
        assert rates == sorted(rates)

    def test_loss_correlates_with_forced_switches(self, grid, config):
        # Paper: "high correlation between the number of forced thread
        # switches and the effect on the throughput".
        result = fig7.run(config, pairs=grid)
        assert result.degradation_correlates_with_forced_switches(1.0) > 0.5

    def test_render(self, grid, config):
        text = fig7.render(fig7.run(config, pairs=grid))
        assert "norm tput" in text


class TestFig8:
    def test_runs_ordered_by_unenforced_fairness(self, grid, config):
        result = fig8.run(config, pairs=grid)
        series = result.achieved_series(0.0)
        assert series == sorted(series)

    def test_enforcement_tracks_target_on_unfair_runs(self, grid, config):
        result = fig8.run(config, pairs=grid)
        for pair_result in result.pairs:
            if pair_result.achieved_fairness(0.0) < 0.1:
                for level in (0.25, 0.5):
                    achieved = pair_result.achieved_fairness(level)
                    assert achieved == pytest.approx(level, abs=level * 0.5)

    def test_truncated_means_are_close_to_targets(self, grid, config):
        result = fig8.run(config, pairs=grid)
        for level in (0.25, 0.5):
            summary = result.summary(level)
            assert summary.mean == pytest.approx(level, rel=0.35)

    def test_over_a_third_of_runs_unfair_without_enforcement(self, grid, config):
        result = fig8.run(config, pairs=grid)
        assert result.unfair_run_fraction(0.1) >= 1 / 3

    def test_render(self, grid, config):
        text = fig8.render(fig8.run(config, pairs=grid))
        assert "Figure 8" in text
        assert "over a third" in text
