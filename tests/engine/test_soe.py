"""Tests for the segment-level SOE engine."""

import math

import pytest

from repro.core.controller import FairnessController, FairnessParams
from repro.core.policy import TimeSharingPolicy
from repro.engine.segments import Segment, stream_from_segments
from repro.engine.singlethread import run_single_thread
from repro.engine.soe import RunLimits, SoeEngine, SoeParams, run_soe
from repro.errors import ConfigurationError
from repro.workloads.synthetic import uniform_stream


def example2_streams(seed_a=1, seed_b=2):
    return [
        uniform_stream(2.5, 15_000, seed=seed_a),
        uniform_stream(2.5, 1_000, seed=seed_b),
    ]


EX2_PARAMS = SoeParams(miss_lat=300, switch_lat=25)


class TestSoeParams:
    def test_defaults_match_paper(self):
        params = SoeParams()
        assert params.miss_lat == 300.0
        assert params.switch_lat == 25.0
        assert params.max_cycles_quota == 50_000.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"miss_lat": -1},
            {"switch_lat": -1},
            {"max_cycles_quota": 0},
            {"miss_lat": math.nan},
            {"switch_lat": math.inf},
            {"max_cycles_quota": math.nan},
            {"max_cycles_quota": math.inf},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            SoeParams(**kwargs)


class TestRunLimits:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_instructions": 0},
            {"warmup_instructions": -1},
            {"max_cycles": 0},
            {"min_instructions": math.nan},
            {"warmup_instructions": math.inf},
            {"max_cycles": math.nan},
            {"max_cycles": math.inf},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            RunLimits(**kwargs)


class TestUnenforcedSoe:
    def test_matches_analytical_model_on_example2(self):
        # Eq. 2: IPC_SOE_j = IPM_j / (sum CPM + 2 * switch_lat).
        result = run_soe(
            example2_streams(),
            params=EX2_PARAMS,
            limits=RunLimits(min_instructions=200_000),
        )
        assert result.ipcs[0] == pytest.approx(15_000 / 6_450, rel=0.01)
        assert result.ipcs[1] == pytest.approx(1_000 / 6_450, rel=0.01)

    def test_unfairness_matches_paper(self):
        result = run_soe(
            example2_streams(),
            params=EX2_PARAMS,
            limits=RunLimits(min_instructions=200_000),
        )
        st = [
            run_single_thread(s, miss_lat=300, min_instructions=500_000).ipc
            for s in example2_streams()
        ]
        assert result.achieved_fairness(st) == pytest.approx(0.11, abs=0.01)

    def test_every_switch_hides_a_miss(self):
        result = run_soe(
            example2_streams(),
            params=EX2_PARAMS,
            limits=RunLimits(min_instructions=100_000),
        )
        assert result.forced_switches == 0
        for stats in result.threads:
            # Cycle-quota switches only fire for near-missless threads.
            assert stats.miss_switches >= stats.cycle_quota_switches

    def test_idle_when_both_threads_miss_together(self):
        # Two very missy threads: the partner's run (CPM + overhead) is
        # shorter than the miss latency, so the core must idle.
        streams = [
            uniform_stream(2.0, 100, seed=1),
            uniform_stream(2.0, 100, seed=2),
        ]
        result = run_soe(
            streams, params=EX2_PARAMS, limits=RunLimits(min_instructions=20_000)
        )
        assert result.idle_cycles > 0

    def test_no_idle_when_partner_covers_latency(self):
        result = run_soe(
            example2_streams(),
            params=EX2_PARAMS,
            limits=RunLimits(min_instructions=100_000),
        )
        assert result.idle_cycles == pytest.approx(0.0)

    def test_switch_overhead_accounted(self):
        result = run_soe(
            example2_streams(),
            params=EX2_PARAMS,
            limits=RunLimits(min_instructions=100_000),
        )
        assert result.switch_overhead_cycles == pytest.approx(
            25.0 * result.total_switches, rel=0.05
        )

    def test_window_accounting_is_complete(self):
        # Running cycles + idle + switch overhead = wall clock.
        result = run_soe(
            example2_streams(),
            params=EX2_PARAMS,
            limits=RunLimits(min_instructions=100_000),
        )
        accounted = (
            sum(t.run_cycles for t in result.threads)
            + result.idle_cycles
            + result.switch_overhead_cycles
        )
        assert accounted == pytest.approx(result.cycles, rel=1e-6)


class TestMaxCyclesQuota:
    def test_missless_thread_is_bounded_by_max_quota(self):
        # One thread never misses within the run: without the quota the
        # other thread would starve completely within each Delta.
        streams = [
            stream_from_segments([Segment(1e9, 4e8)]),  # effectively missless
            uniform_stream(2.5, 1_000, seed=2),
        ]
        params = SoeParams(miss_lat=300, switch_lat=25, max_cycles_quota=10_000)
        result = run_soe(streams, params=params, limits=RunLimits(min_instructions=50_000))
        assert result.threads[0].cycle_quota_switches > 0
        assert result.threads[1].retired > 0

    def test_dispatch_never_exceeds_quota(self):
        streams = [
            stream_from_segments([Segment(1e9, 4e8)]),
            stream_from_segments([Segment(1e9, 4e8)]),
        ]
        params = SoeParams(miss_lat=300, switch_lat=25, max_cycles_quota=5_000)
        result = run_soe(streams, params=params, limits=RunLimits(
            min_instructions=1e5, max_cycles=200_000))
        # Both threads alternate on the cycle quota: each got roughly
        # half the run cycles.
        runs = [t.run_cycles for t in result.threads]
        assert runs[0] == pytest.approx(runs[1], rel=0.1)


class TestFairnessEnforcementEndToEnd:
    @pytest.mark.parametrize("target", [0.25, 0.5, 1.0])
    def test_achieved_fairness_reaches_target(self, target):
        streams = example2_streams()
        controller = FairnessController(2, FairnessParams(fairness_target=target))
        result = run_soe(
            streams,
            controller,
            params=EX2_PARAMS,
            limits=RunLimits(min_instructions=1_500_000, warmup_instructions=1_000_000),
        )
        st = [
            run_single_thread(s, miss_lat=300, min_instructions=500_000).ipc
            for s in example2_streams()
        ]
        achieved = result.achieved_fairness(st)
        assert achieved == pytest.approx(target, abs=0.05)

    def test_f1_ipcs_match_analytical_model(self):
        controller = FairnessController(2, FairnessParams(fairness_target=1.0))
        result = run_soe(
            example2_streams(),
            controller,
            params=EX2_PARAMS,
            limits=RunLimits(min_instructions=1_500_000, warmup_instructions=1_000_000),
        )
        # Model: IPSw = [1667, 1000], round = 667 + 400 + 50.
        assert result.ipcs[0] == pytest.approx(1_667 / 1_117, rel=0.02)
        assert result.ipcs[1] == pytest.approx(1_000 / 1_117, rel=0.02)

    def test_forced_switches_increase_with_target(self):
        rates = []
        for target in (0.25, 0.5, 1.0):
            controller = FairnessController(2, FairnessParams(fairness_target=target))
            result = run_soe(
                example2_streams(),
                controller,
                params=EX2_PARAMS,
                limits=RunLimits(
                    min_instructions=1_000_000, warmup_instructions=500_000
                ),
            )
            rates.append(result.forced_switches_per_kcycle())
        assert rates == sorted(rates)

    def test_enforcement_costs_throughput_here(self):
        base = run_soe(
            example2_streams(),
            params=EX2_PARAMS,
            limits=RunLimits(min_instructions=1_000_000),
        )
        controller = FairnessController(2, FairnessParams(fairness_target=1.0))
        enforced = run_soe(
            example2_streams(),
            controller,
            params=EX2_PARAMS,
            limits=RunLimits(min_instructions=1_000_000, warmup_instructions=500_000),
        )
        assert enforced.total_ipc < base.total_ipc


class TestTimeSharingOnEngine:
    def test_equal_time_but_unequal_slowdown(self):
        # Section 6: a 400-cycle time quota divides time nearly equally
        # but produces poor fairness on Example 2's threads.
        policy = TimeSharingPolicy(400)
        result = run_soe(
            example2_streams(),
            policy,
            params=EX2_PARAMS,
            limits=RunLimits(min_instructions=500_000),
        )
        run_cycles = [t.run_cycles for t in result.threads]
        assert run_cycles[0] == pytest.approx(run_cycles[1], rel=0.25)
        st = [
            run_single_thread(s, miss_lat=300, min_instructions=500_000).ipc
            for s in example2_streams()
        ]
        assert result.achieved_fairness(st) < 0.8


class TestEngineEdgeCases:
    def test_requires_two_threads(self):
        with pytest.raises(ConfigurationError):
            SoeEngine([uniform_stream(2.0, 100)])

    def test_finite_streams_terminate(self):
        streams = [
            stream_from_segments([Segment(100, 40)] * 10),
            stream_from_segments([Segment(100, 40)] * 10),
        ]
        result = run_soe(streams, limits=RunLimits(min_instructions=1e9))
        assert result.threads[0].retired == pytest.approx(1_000)
        assert result.threads[1].retired == pytest.approx(1_000)

    def test_max_cycles_safety_stop(self):
        streams = example2_streams()
        result = run_soe(
            streams, limits=RunLimits(min_instructions=1e12, max_cycles=100_000)
        )
        assert result.cycles <= 101_000

    def test_deterministic_across_runs(self):
        r1 = run_soe(example2_streams(), limits=RunLimits(min_instructions=100_000))
        r2 = run_soe(example2_streams(), limits=RunLimits(min_instructions=100_000))
        assert r1.ipcs == r2.ipcs
        assert r1.cycles == r2.cycles

    def test_three_threads(self):
        streams = [
            uniform_stream(2.5, 5_000, seed=1),
            uniform_stream(2.0, 2_000, seed=2),
            uniform_stream(1.5, 500, seed=3),
        ]
        result = run_soe(streams, limits=RunLimits(min_instructions=100_000))
        assert result.num_threads == 3
        assert all(t.retired >= 100_000 for t in result.threads)

    def test_warmup_reduces_measured_window(self):
        full = run_soe(example2_streams(), limits=RunLimits(min_instructions=500_000))
        warmed = run_soe(
            example2_streams(),
            limits=RunLimits(min_instructions=500_000, warmup_instructions=250_000),
        )
        assert warmed.cycles < full.cycles
