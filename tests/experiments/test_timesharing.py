"""Tests for the Section 6 time-sharing comparison."""

import dataclasses

import pytest

from repro.experiments import timesharing
from repro.experiments.common import EvalConfig


@pytest.fixture(scope="module")
def result():
    return timesharing.run(
        config=dataclasses.replace(
            EvalConfig(), min_instructions=600_000, warmup_instructions=500_000
        )
    )


class TestTimeSharing:
    def test_quota_400_gives_papers_fairness(self, result):
        point = next(p for p in result.points if p.cycle_quota == 400.0)
        # Paper's worked example: achieved fairness 0.5/0.8 = 0.6.
        assert point.fairness == pytest.approx(0.6, abs=0.1)

    def test_quota_400_divides_time_equally(self, result):
        point = next(p for p in result.points if p.cycle_quota == 400.0)
        assert point.time_share[0] == pytest.approx(0.5, abs=0.05)

    def test_large_quota_gives_poor_fairness(self, result):
        largest = max(result.points, key=lambda p: p.cycle_quota)
        assert largest.fairness < 0.2

    def test_large_quota_preserves_throughput(self, result):
        largest = max(result.points, key=lambda p: p.cycle_quota)
        smallest = min(result.points, key=lambda p: p.cycle_quota)
        assert largest.total_ipc > smallest.total_ipc

    def test_enforcement_beats_timesharing_at_its_own_game(self, result):
        # The mechanism achieves near-1.0 fairness at a throughput no
        # time-sharing quota matches at comparable fairness.
        assert result.enforced_fairness > 0.9
        for point in result.points:
            if point.fairness >= 0.85:
                assert result.enforced_ipc >= point.total_ipc

    def test_fairness_costs_throughput_flag(self, result):
        assert result.fairness_costs_throughput()

    def test_render(self, result):
        text = timesharing.render(result)
        assert "time sharing" in text.lower()
        assert "enforced" in text


class TestQuickScaleGolden:
    """The quick-scale sweep, pinned bit for bit (values captured when
    the experiment built ``TimeSharingPolicy`` directly, before it went
    through the ``rr-timeshare`` registry entry)."""

    def test_points_and_enforced_run(self):
        result = timesharing.run(config=EvalConfig.quick())
        assert result.points == [
            timesharing.TimeSharingPoint(
                100.0, 1.988843813387424, 0.87075,
                (0.592044875063743, 0.407955124936257),
            ),
            timesharing.TimeSharingPoint(
                200.0, 2.2128187767998195, 0.8707499999999999,
                (0.592044875063743, 0.407955124936257),
            ),
            timesharing.TimeSharingPoint(
                400.0, 2.3529411764705883, 0.6000000000000001, (0.5, 0.5),
            ),
            timesharing.TimeSharingPoint(
                1000.0, 2.413793103448276, 0.6666666666666667,
                (0.7142857142857143, 0.2857142857142857),
            ),
            timesharing.TimeSharingPoint(
                4000.0, 2.463768115942029, 0.22222222222222224,
                (0.8823529411764706, 0.11764705882352941),
            ),
            timesharing.TimeSharingPoint(
                16000.0, 2.4806201550387597, 0.1111111111111111,
                (0.9375, 0.0625),
            ),
        ]
        assert result.enforced_ipc == 2.392051890226553
        assert result.enforced_fairness == 0.9435707244499282


class TestConfigPlumbing:
    """The machine parameters must come from the EvalConfig, not
    hard-coded module constants (the workload's IPC_NO_MISS/IPM stay
    Example-2 constants on purpose)."""

    @staticmethod
    def _at_400(result):
        return next(p for p in result.points if p.cycle_quota == 400.0)

    def test_switch_lat_reaches_the_simulation(self):
        quick = EvalConfig.quick()
        base = timesharing.run(config=quick)
        slow = timesharing.run(config=dataclasses.replace(quick, switch_lat=100.0))
        assert self._at_400(slow).total_ipc < self._at_400(base).total_ipc

    def test_sample_period_reaches_the_enforced_run(self):
        quick = EvalConfig.quick()
        base = timesharing.run(config=quick)
        fine = timesharing.run(
            config=dataclasses.replace(quick, sample_period=40_000.0)
        )
        assert fine.enforced_ipc != base.enforced_ipc

    def test_miss_lat_reaches_the_enforced_run(self):
        quick = EvalConfig.quick()
        base = timesharing.run(config=quick)
        fast = timesharing.run(config=dataclasses.replace(quick, miss_lat=100.0))
        assert fast.enforced_ipc != base.enforced_ipc
