"""Tests for the extension experiments (events, threadcount, weighted)."""

import dataclasses

import pytest

from repro.experiments import events, threadcount, weighted
from repro.experiments.common import EvalConfig


def _lengths(min_instructions, warmup_instructions):
    return dataclasses.replace(
        EvalConfig(),
        min_instructions=min_instructions,
        warmup_instructions=warmup_instructions,
    )


class TestEventsExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return events.run(config=_lengths(1_200_000, 800_000))

    def test_three_configurations(self, result):
        labels = {r.configuration for r in result.rows}
        assert labels == {"assumed 300", "oracle", "measured"}

    def test_wrong_constant_misses_the_target(self, result):
        wrong = result.row("assumed 300")
        assert abs(wrong.achieved_fairness - result.fairness_target) > 0.1

    def test_oracle_hits_the_target(self, result):
        oracle = result.row("oracle")
        assert oracle.achieved_fairness == pytest.approx(
            result.fairness_target, abs=0.07
        )

    def test_measured_matches_oracle(self, result):
        measured = result.row("measured")
        oracle = result.row("oracle")
        assert measured.achieved_fairness == pytest.approx(
            oracle.achieved_fairness, abs=0.08
        )
        assert measured.achieved_fairness == pytest.approx(
            result.fairness_target, abs=0.08
        )
        assert result.measurement_closes_the_gap

    def test_monitor_converges_to_true_mean(self, result):
        measured = result.row("measured")
        assert measured.measured_latency == pytest.approx(
            result.true_mean_latency, rel=0.25
        )

    def test_render(self, result):
        text = events.render(result)
        assert "variable-latency" in text
        assert "measured" in text


class TestThreadCountExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return threadcount.run(config=_lengths(500_000, 350_000))

    def test_throughput_grows_then_saturates(self, result):
        series = result.throughput_series()
        assert series[1] > series[0] * 1.1  # 3 threads beat 2
        assert max(series) == pytest.approx(series[-1], rel=0.05)

    def test_saturation_near_three(self, result):
        assert result.saturation_point() in (3, 4)

    def test_idle_vanishes_with_enough_threads(self, result):
        by_count = {row.num_threads: row for row in result.rows}
        assert by_count[2].idle_fraction > 0.1
        assert by_count[5].idle_fraction < 0.01

    def test_enforcement_works_at_every_thread_count(self, result):
        for row in result.rows:
            assert row.fairness_unenforced < 0.2
            assert row.fairness_enforced == pytest.approx(
                result.fairness_target, abs=0.1
            )

    def test_render(self, result):
        text = threadcount.render(result)
        assert "saturates" in text

    def test_reference_runs_for_st_min_instructions(self):
        # The single-thread reference runs for the config's
        # st_min_instructions, as the grid's does: changing only that
        # length moves the achieved fairness, not the SOE runs.
        config = _lengths(200_000, 100_000)
        rows = [
            next(
                row
                for row in threadcount.run(
                    config=dataclasses.replace(config, st_min_instructions=length)
                ).rows
                if row.num_threads == 2
            )
            for length in (200_000.0, 400_000.0)
        ]
        assert rows[0].total_ipc == rows[1].total_ipc
        assert rows[0].fairness_enforced != rows[1].fairness_enforced


class TestWeightedExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return weighted.run(config=_lengths(1_200_000, 800_000))

    def test_ratios_achieved(self, result):
        for row in result.rows:
            assert row.achieved_ratio == pytest.approx(
                row.target_ratio, rel=0.08
            )

    def test_weighted_fairness_is_high_everywhere(self, result):
        for row in result.rows:
            assert row.weighted_fairness > 0.9

    def test_equal_weights_recover_base_mechanism(self, result):
        base = next(r for r in result.rows if r.weights == (1.0, 1.0))
        assert base.speedups[0] == pytest.approx(base.speedups[1], rel=0.05)

    def test_upweighting_fast_thread_raises_throughput(self, result):
        by_weights = {r.weights: r for r in result.rows}
        # Thread 1 is the high-IPC_ST thread; biasing towards it wins
        # throughput (the Figure 3 improvement effect).
        assert by_weights[(4.0, 1.0)].total_ipc > by_weights[(1.0, 1.0)].total_ipc

    def test_render(self, result):
        text = weighted.render(result)
        assert "Prioritized" in text
