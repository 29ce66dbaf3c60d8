"""Tests for the validation and ablation experiments."""

import dataclasses

import pytest

from repro.experiments import ablations, validation
from repro.experiments.common import EvalConfig


class TestValidation:
    @pytest.fixture(scope="class")
    def result(self):
        return validation.run(
            config=dataclasses.replace(EvalConfig(), st_min_instructions=300_000)
        )

    def test_engine_matches_model_closely(self, result):
        # The segment engine executes the model's assumptions exactly;
        # residual error is end-effects only.
        assert result.worst_error < 0.02

    def test_all_cases_present(self, result):
        assert len(result.cases) == len(validation.CASES)

    def test_render(self, result):
        text = validation.render(result)
        assert "model" in text
        assert "engine" in text


class TestAblations:
    @pytest.fixture(scope="class")
    def result(self):
        config = EvalConfig(
            sample_period=100_000.0,
            min_instructions=600_000.0,
            warmup_instructions=300_000.0,
            st_min_instructions=400_000.0,
        )
        return ablations.run(config)

    def test_covers_all_knobs(self, result):
        knobs = {p.knob for p in result.points}
        assert knobs == {
            "delta",
            "max_cycles_quota",
            "deficit_cap",
            "assumed_miss_lat",
        }

    def test_paper_delta_achieves_target(self, result):
        series = result.series("delta")
        paper_point = next(p for p in series if p.value == "250,000")
        assert paper_point.achieved_fairness == pytest.approx(0.5, abs=0.1)

    def test_underestimated_miss_latency_overshoots_fairness(self, result):
        # A lower assumed latency deflates IPC_ST estimates for missy
        # threads less than for compute threads, shifting quotas.
        series = {p.value: p for p in result.series("assumed_miss_lat")}
        assert series["150"].achieved_fairness > series["600"].achieved_fairness

    def test_tight_deficit_cap_forces_more_switches(self, result):
        series = {p.value: p for p in result.series("deficit_cap")}
        assert series["tight"].forced_per_kcycle > series["none"].forced_per_kcycle

    def test_render(self, result):
        text = ablations.render(result)
        assert "gcc:eon" in text
        assert "delta" in text
