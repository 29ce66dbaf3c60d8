"""Tests for the fairness controller (the full Section 3 mechanism)."""

import math

import pytest

from repro.core.controller import FairnessController, FairnessParams
from repro.errors import ConfigurationError


def make_controller(target=1.0, period=250_000.0, **kwargs):
    return FairnessController(
        2, FairnessParams(fairness_target=target, sample_period=period, **kwargs)
    )


def feed_example2_window(controller, cycles=250_000.0):
    """Feed counters equivalent to Example 2's steady state."""
    # Thread 0: IPM 15000, CPM 6000 -> scale to ~cycles of running time.
    controller.on_retired(0, 30_000, 12_000)
    controller.on_miss(0, 0.0)
    controller.on_miss(0, 0.0)
    # Thread 1: IPM 1000, CPM 400.
    controller.on_retired(1, 20_000, 8_000)
    for _ in range(20):
        controller.on_miss(1, 0.0)
    controller.on_boundary(cycles)


class TestFairnessParams:
    def test_defaults_match_paper(self):
        params = FairnessParams(fairness_target=0.5)
        assert params.miss_lat == 300.0
        assert params.sample_period == 250_000.0
        assert params.deficit_cap is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fairness_target": 1.5},
            {"fairness_target": -0.1},
            {"fairness_target": 0.5, "miss_lat": -1},
            {"fairness_target": 0.5, "sample_period": 0},
            {"fairness_target": 0.5, "sample_period": math.inf},
            {"fairness_target": 0.5, "sample_period": math.nan},
            {"fairness_target": 0.5, "miss_lat": math.nan},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            FairnessParams(**kwargs)


class TestFairnessController:
    def test_initial_quotas_are_infinite(self):
        # No estimates yet: never force-switch a thread you know nothing
        # about.
        controller = make_controller()
        assert controller.quotas == [math.inf, math.inf]

    def test_initial_budget_is_infinite(self):
        controller = make_controller()
        controller.on_run_start(0, 0.0)
        assert controller.instruction_budget(0) == math.inf

    def test_boundary_computes_example2_quotas(self):
        controller = make_controller(target=1.0)
        feed_example2_window(controller)
        quotas = controller.quotas
        assert quotas[0] == pytest.approx(1_666.7, abs=1.0)
        assert quotas[1] == pytest.approx(1_000.0, abs=1.0)

    def test_budget_follows_deficit(self):
        controller = make_controller(target=1.0)
        feed_example2_window(controller)
        controller.on_run_start(0, 250_000.0)
        budget0 = controller.instruction_budget(0)
        controller.on_retired(0, 600, 240)
        assert controller.instruction_budget(0) == pytest.approx(budget0 - 600)

    def test_deficit_carries_across_dispatches(self):
        controller = make_controller(target=1.0)
        feed_example2_window(controller)
        controller.on_run_start(0, 250_000.0)
        controller.on_retired(0, 600, 240)  # miss cuts the dispatch short
        controller.on_miss(0, 250_240.0)
        controller.on_run_start(0, 251_000.0)
        expected = controller.quotas[0] - 600 + controller.quotas[0]
        assert controller.instruction_budget(0) == pytest.approx(expected)

    def test_next_boundary_advances(self):
        controller = make_controller(period=1_000.0)
        assert controller.next_boundary(0.0) == 1_000.0
        controller.on_boundary(1_000.0)
        assert controller.next_boundary(1_000.0) == 2_000.0

    def test_history_records_sample_points(self):
        controller = make_controller(period=1_000.0)
        controller.on_retired(0, 100, 50)
        controller.on_boundary(1_000.0)
        history = controller.history
        assert len(history) == 1
        assert history[0].time == 1_000.0
        assert history[0].window_instructions[0] == pytest.approx(100)

    def test_starved_thread_keeps_infinite_quota(self):
        controller = make_controller(target=1.0)
        # Thread 1 never runs in the window.
        controller.on_retired(0, 10_000, 5_000)
        controller.on_miss(0, 0.0)
        controller.on_boundary(250_000.0)
        assert controller.quotas[1] == math.inf
        assert math.isfinite(controller.quotas[0])

    def test_counters_reset_each_window(self):
        controller = make_controller(period=1_000.0)
        controller.on_retired(0, 100, 50)
        controller.on_boundary(1_000.0)
        controller.on_boundary(2_000.0)
        # Second window was empty: estimate carried over.
        second = controller.history[1]
        assert second.window_instructions == (0.0, 0.0)
        assert second.estimates[0].carried_over

    def test_f_zero_controller_never_forces(self):
        controller = make_controller(target=0.0)
        feed_example2_window(controller)
        assert controller.quotas == [math.inf, math.inf]

    def test_miss_recording_affects_estimates(self):
        controller = make_controller()
        controller.on_retired(0, 10_000, 5_000)
        controller.on_miss(0, 0.0)
        controller.on_retired(1, 10_000, 5_000)
        controller.on_boundary(250_000.0)
        est = controller.estimates
        assert est[0].ipm == pytest.approx(10_000)
        # Thread 1 had zero misses: max(misses, 1) applies.
        assert est[1].ipm == pytest.approx(10_000)

    def test_rejects_zero_threads(self):
        with pytest.raises(ConfigurationError):
            FairnessController(0, FairnessParams(fairness_target=0.5))
