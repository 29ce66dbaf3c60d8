"""Tests for the machine-parameter sensitivity experiment."""

import dataclasses

import pytest

from repro.experiments import sensitivity
from repro.experiments.common import EvalConfig


@pytest.fixture(scope="module")
def result():
    return sensitivity.run(
        miss_latencies=(75.0, 300.0, 1_200.0),
        switch_latencies=(5.0, 25.0, 100.0),
        spot_check=(300.0,),
        config=dataclasses.replace(
            EvalConfig(), min_instructions=1_000_000, warmup_instructions=700_000
        ),
    )


class TestSensitivity:
    def test_unenforced_fairness_softens_with_slower_memory(self, result):
        # Eq. 5: larger L dominates both CPM terms, pushing the ratio
        # towards 1.
        series = result.series("miss_lat")
        fairness_values = [row.unenforced_fairness for row in series]
        assert fairness_values == sorted(fairness_values)

    def test_enforcement_cost_shrinks_with_slower_memory(self, result):
        series = result.series("miss_lat")
        costs = [row.f1_throughput_cost for row in series]
        assert costs == sorted(costs, reverse=True)

    def test_enforcement_cost_grows_with_switch_latency(self, result):
        series = result.series("switch_lat")
        costs = [row.f1_throughput_cost for row in series]
        assert costs == sorted(costs)
        # Roughly linear in S: 100-cycle switches cost ~>3x the paper's
        # 25-cycle switches.
        assert costs[-1] > 2.5 * costs[1]

    def test_switch_latency_does_not_change_unenforced_fairness(self, result):
        series = result.series("switch_lat")
        values = {round(row.unenforced_fairness, 6) for row in series}
        assert len(values) == 1

    def test_engine_spot_check_matches_model(self, result):
        checked = [row for row in result.rows if row.measured_cost is not None]
        assert checked
        for row in checked:
            assert row.measured_cost == pytest.approx(
                row.f1_throughput_cost, abs=0.01
            )

    def test_render(self, result):
        text = sensitivity.render(result)
        assert "sensitivity" in text.lower()
        assert "miss_lat" in text
