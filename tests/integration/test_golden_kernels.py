"""Golden regression tests for the two simulation kernels.

Every value below was captured from the pre-optimization kernels and is
pinned exactly (integers and float bit patterns alike). Any kernel
optimization — ``__slots__``, decode tables, event-driven fast-forward,
issue-loop rewrites — must keep these runs *bit-identical*; a change to
any number here means the optimization altered simulation semantics,
not just its speed. See docs/PERFORMANCE.md.

The scenarios are deliberately small (sub-second each) but exercise the
hot paths the optimizations touch: miss-triggered switches, pipeline
flush/refill, fairness quotas and Delta boundaries, single-thread
ROB-head stalls (the fast-forward path), idle gaps, and the segment
engine's event arithmetic with and without a controller. The later
detailed-core scenarios (time sharing, three threads with and without
ICOUNT, same-cycle wakeup) were captured from the per-stage pipeline, before its stages
were fused into one cycle loop, and cover paths the first three miss.
The last two (one port of each kind, same-cycle wakeup under quota
switches) were captured from the RS-scan issue stage before it became
wakeup driven. The segment-engine scenarios after the first two (time
sharing, three threads under ICOUNT, an interval recorder, measured
event latencies, miss-free joins, a zero budget at dispatch, a run cut
by ``max_cycles`` while every thread waits) were captured from the
per-event helper methods, before the engine's event loop was fused.
"""

from __future__ import annotations

from repro.core.controller import FairnessController, FairnessParams
from repro.core.icount import IcountPolicy
from repro.core.policy import SwitchPolicy, TimeSharingPolicy
from repro.cpu.machine import MachineConfig
from repro.cpu.soe_core import run_cpu_single_thread, run_cpu_soe
from repro.engine.recorder import IntervalRecorder, IntervalSample
from repro.engine.segments import Segment, stream_from_segments
from repro.engine.soe import RunLimits, SoeEngine, SoeParams, run_soe
from repro.workloads.events import EventType, multi_event_stream
from repro.workloads.synthetic import uniform_stream
from repro.workloads.tracegen import (
    COMPUTE_SPEC,
    MEMORY_SPEC,
    MIXED_SPEC,
    make_trace,
)


def _thread_tuples(result):
    return [
        (
            t.retired,
            t.run_cycles,
            t.misses,
            t.miss_switches,
            t.forced_switches,
            t.cycle_quota_switches,
        )
        for t in result.threads
    ]


def _mixed_memory_pair():
    return [
        make_trace(MIXED_SPEC, seed=3, thread_index=0),
        make_trace(MEMORY_SPEC, seed=4, thread_index=1),
    ]


def _variable_pair():
    return [
        uniform_stream(2.5, 15_000, ipm_cv=0.5, ipc_cv=0.3, seed=1),
        uniform_stream(1.2, 800, ipm_cv=1.0, seed=2),
    ]


_WARM_LIMITS = RunLimits(min_instructions=50_000, warmup_instructions=10_000)


class _EveryThirdDispatchZeroBudget(SwitchPolicy):
    """Grants no instructions on every third dispatch, so the engine
    must force a switch before the thread retires anything."""

    def __init__(self) -> None:
        self.dispatches = 0

    def on_run_start(self, thread_id: int, now: float) -> None:
        self.dispatches += 1

    def instruction_budget(self, thread_id: int) -> float:
        return 0.0 if self.dispatches % 3 == 0 else 1_500.0


def _three_threads():
    return _mixed_memory_pair() + [
        make_trace(COMPUTE_SPEC, seed=5, thread_index=2)
    ]


class TestDetailedCoreGolden:
    """Pinned ``CpuRunResult`` values for the cycle-level core."""

    def test_mt_no_policy(self):
        result = run_cpu_soe(
            [
                make_trace(MIXED_SPEC, seed=3, thread_index=0),
                make_trace(MEMORY_SPEC, seed=4, thread_index=1),
            ],
            min_instructions=1_500,
            warmup_instructions=500,
        )
        assert result.cycles == 67917
        assert _thread_tuples(result) == [
            (1289, 16324, 101, 101, 0, 0),
            (5284, 25516, 101, 101, 0, 0),
        ]
        assert len(result.switch_latencies) == 202
        assert sum(result.switch_latencies) == 3812
        assert result.mean_switch_latency == 3812 / 202
        assert result.l2_miss_rate == 0.9848197343453511
        assert result.branch_mispredict_rate == 0.37988826815642457

    def test_mt_fairness_controller(self):
        controller = FairnessController(
            2, FairnessParams(fairness_target=0.5, sample_period=2_000.0)
        )
        result = run_cpu_soe(
            [
                make_trace(MEMORY_SPEC, seed=5, thread_index=0),
                make_trace(COMPUTE_SPEC, seed=6, thread_index=1),
            ],
            controller,
            min_instructions=1_500,
            warmup_instructions=500,
        )
        assert result.cycles == 55599
        assert _thread_tuples(result) == [
            (1274, 12279, 82, 82, 0, 0),
            (1453, 20870, 80, 80, 2, 0),
        ]
        assert len(result.switch_latencies) == 164
        assert sum(result.switch_latencies) == 3099
        assert result.l2_miss_rate == 1.0
        assert result.branch_mispredict_rate == 0.6718346253229974

    def test_single_thread_memory_bound(self):
        """The ROB-head-stall workload the fast-forward path targets."""
        result = run_cpu_single_thread(
            make_trace(MEMORY_SPEC, seed=1),
            min_instructions=2_000,
            warmup_instructions=500,
        )
        assert result.cycles == 34140
        assert _thread_tuples(result) == [(1500, 34140, 0, 0, 0, 0)]
        assert result.switch_latencies == ()
        assert result.l2_miss_rate == 1.0
        assert result.branch_mispredict_rate == 1.0

    def test_mt_time_sharing(self):
        """A policy with a cycle budget but no instruction budget or
        Delta boundary: the cycle-quota switch path."""
        result = run_cpu_soe(
            _mixed_memory_pair(),
            TimeSharingPolicy(cycle_quota=400.0),
            min_instructions=1_500,
            warmup_instructions=500,
        )
        assert result.cycles == 56759
        assert _thread_tuples(result) == [
            (1304, 9043, 101, 101, 0, 42),
            (1938, 11684, 89, 89, 0, 67),
        ]
        assert len(result.switch_latencies) == 290
        assert sum(result.switch_latencies) == 14705
        assert result.l2_miss_rate == 0.9921875
        assert result.branch_mispredict_rate == 0.5871559633027523

    def test_three_threads_icount(self):
        """Three threads, so ``select_thread`` can beat round robin."""
        result = run_cpu_soe(
            _three_threads(),
            IcountPolicy(3),
            min_instructions=1_500,
            warmup_instructions=500,
        )
        assert result.cycles == 78558
        assert _thread_tuples(result) == [
            (1372, 15850, 112, 112, 0, 0),
            (1536, 17753, 100, 100, 0, 0),
            (1542, 22308, 88, 88, 0, 0),
        ]
        assert len(result.switch_latencies) == 300
        assert sum(result.switch_latencies) == 6009
        assert result.l2_miss_rate == 0.7465564738292011
        assert result.branch_mispredict_rate == 0.622360248447205

    def test_three_threads_no_policy(self):
        result = run_cpu_soe(
            _three_threads(),
            min_instructions=1_500,
            warmup_instructions=500,
        )
        assert result.cycles == 94946
        assert _thread_tuples(result) == [
            (1382, 15980, 109, 109, 0, 0),
            (3331, 25129, 109, 109, 0, 0),
            (2976, 29527, 110, 110, 0, 0),
        ]
        assert len(result.switch_latencies) == 328
        assert sum(result.switch_latencies) == 6516
        assert result.l2_miss_rate == 0.5978765759787658
        assert result.branch_mispredict_rate == 0.5032

    def test_single_thread_same_cycle_wakeup(self):
        """Zero-latency ALU ops complete in the cycle they issue, so a
        consumer later in the same RS scan issues in that cycle too; the
        small RS keeps rename stalling on a full window."""
        result = run_cpu_single_thread(
            make_trace(MIXED_SPEC, seed=3),
            config=MachineConfig(alu_latency=0, rs_entries=4),
            min_instructions=2_000,
            warmup_instructions=500,
        )
        assert result.cycles == 40089
        assert _thread_tuples(result) == [(1500, 40089, 0, 0, 0, 0)]
        assert result.switch_latencies == ()
        assert result.l2_miss_rate == 1.0
        assert result.branch_mispredict_rate == 1.0

    def test_mt_one_port_of_each_kind(self):
        """One ALU port (the other kinds have one already): ready uops
        wait several cycles for a port, and issue stays oldest first."""
        result = run_cpu_soe(
            _mixed_memory_pair(),
            config=MachineConfig(alu_ports=1),
            min_instructions=1_500,
            warmup_instructions=500,
        )
        assert result.cycles == 68932
        assert _thread_tuples(result) == [
            (1300, 16122, 101, 101, 0, 0),
            (5582, 26538, 101, 101, 0, 0),
        ]
        assert len(result.switch_latencies) == 202
        assert sum(result.switch_latencies) == 3840
        assert result.l2_miss_rate == 0.9848484848484849
        assert result.branch_mispredict_rate == 0.3627556512378902

    def test_mt_same_cycle_wakeup_fairness_controller(self):
        """Zero-latency ALU wakeups under a fairness controller, whose
        quota switches flush the pipeline mid-chain."""
        controller = FairnessController(
            2, FairnessParams(fairness_target=0.9, sample_period=1_000.0)
        )
        result = run_cpu_soe(
            _mixed_memory_pair(),
            controller,
            config=MachineConfig(alu_latency=0),
            min_instructions=1_500,
            warmup_instructions=500,
        )
        assert result.cycles == 60678
        assert _thread_tuples(result) == [
            (1286, 14356, 98, 98, 25, 0),
            (1871, 20606, 88, 88, 45, 0),
        ]
        assert len(result.switch_latencies) == 253
        assert sum(result.switch_latencies) == 6297
        assert result.l2_miss_rate == 0.9921568627450981
        assert result.branch_mispredict_rate == 0.5747330960854092


class TestSegmentEngineGolden:
    """Pinned ``SoeRunResult`` values for the segment-level engine."""

    def test_no_policy_variable_segments(self):
        result = run_soe(
            [
                uniform_stream(2.5, 15_000, ipm_cv=0.5, ipc_cv=0.3, seed=1),
                uniform_stream(1.2, 800, ipm_cv=1.0, seed=2),
            ],
            limits=RunLimits(min_instructions=50_000),
        )
        assert result.cycles == 362995.4064727473
        assert _thread_tuples(result) == [
            (727472.3966640637, 317179.16956988006, 53, 53, 0, 0),
            (50155.05053210322, 41795.87544341936, 53, 53, 0, 0),
        ]
        assert result.idle_cycles == 1370.3614594478058
        assert result.switch_overhead_cycles == 2650.0

    def test_fairness_controller_uniform_segments(self):
        controller = FairnessController(
            2, FairnessParams(fairness_target=0.5, sample_period=25_000.0)
        )
        result = run_soe(
            [
                uniform_stream(2.5, 15_000, seed=1),
                uniform_stream(2.5, 1_000, seed=2),
            ],
            controller,
            SoeParams(),
            RunLimits(min_instructions=50_000, warmup_instructions=10_000),
        )
        assert result.cycles == 103470.83559228173
        assert _thread_tuples(result) == [
            (202352.22794394754, 80940.89117757893, 13, 13, 37, 0),
            (50000.0, 20000.0, 50, 50, 1, 0),
        ]
        assert result.idle_cycles == 4.944414702855283
        assert result.switch_overhead_cycles == 2525.0

    def test_time_sharing(self):
        """Only ``cycle_budget`` and ``on_retired`` are overridden."""
        result = run_soe(
            _variable_pair(), TimeSharingPolicy(cycle_quota=2_000.0),
            limits=_WARM_LIMITS,
        )
        assert result.cycles == 137354.02799965985
        assert _thread_tuples(result) == [
            (257737.40137865447, 93986.45341553983, 18, 18, 0, 38),
            (47755.05053210322, 39795.87544341936, 53, 53, 0, 4),
        ]
        assert result.idle_cycles == 746.699140700679
        assert result.switch_overhead_cycles == 2825.0

    def test_three_threads_icount(self):
        """A ``select_thread`` policy picks among three ready threads."""
        result = run_soe(
            _variable_pair()
            + [uniform_stream(2.0, 3_000, ipm_cv=0.7, ipc_cv=0.1, seed=3)],
            IcountPolicy(3),
            limits=_WARM_LIMITS,
        )
        assert result.cycles == 160023.57617657038
        assert _thread_tuples(result) == [
            (148575.91257009056, 51715.80695282461, 11, 11, 0, 0),
            (50155.05053210322, 41795.87544341936, 53, 53, 0, 0),
            (126935.4380600517, 63886.89378032638, 41, 41, 0, 0),
        ]
        assert result.idle_cycles == 0.0
        assert result.switch_overhead_cycles == 2625.0

    def test_interval_recorder_with_controller(self):
        """Fig. 5's setup: recorder and ``Delta`` boundaries interleave,
        and the recorder reads the engine at each of its boundaries."""
        controller = FairnessController(
            2, FairnessParams(fairness_target=0.5, sample_period=25_000.0)
        )
        recorder = IntervalRecorder(interval=20_000.0)
        engine = SoeEngine(
            _variable_pair(), controller, SoeParams(), recorder=recorder
        )
        result = engine.run(_WARM_LIMITS)
        assert result.cycles == 166537.06998771278
        assert _thread_tuples(result) == [
            (313610.38610858936, 121246.07647823461, 23, 23, 29, 0),
            (50155.05053210322, 41795.87544341936, 53, 53, 0, 0),
        ]
        assert result.idle_cycles == 870.1180660586906
        assert result.switch_overhead_cycles == 2625.0
        assert len(controller.history) == 6
        assert [s.time for s in recorder.samples] == [
            20_000.0 * k for k in range(1, 9)
        ]
        assert recorder.samples[-1] == IntervalSample(
            time=160000.0,
            retired=(31026.325141143403, 4736.774743085945),
            ipcs=(1.5513162570571701, 0.23683873715429726),
            cumulative_retired=(314888.943716304, 43610.05313466387),
        )
        assert sum(sum(s.ipcs) for s in recorder.samples) == 17.924949842548394

    def test_measured_event_latencies(self):
        """Per-segment latencies reach ``on_miss`` and the latency
        monitor (Section 6's variable-latency events)."""
        controller = FairnessController(
            2,
            FairnessParams(
                fairness_target=0.5, sample_period=25_000.0,
                measure_miss_latency=True,
            ),
        )
        events = [EventType(ipm=600.0, latency=300.0),
                  EventType(ipm=2_000.0, latency=30.0)]
        result = run_soe(
            [
                multi_event_stream(2.0, events, seed=4),
                uniform_stream(2.5, 10_000, ipm_cv=0.5, seed=5),
            ],
            controller,
            limits=_WARM_LIMITS,
        )
        assert result.cycles == 135808.97533071358
        assert _thread_tuples(result) == [
            (50516.79612050653, 25258.398060253265, 91, 91, 12, 0),
            (255112.0527959327, 102044.82111837307, 27, 27, 70, 0),
        ]
        assert result.idle_cycles == 3505.7561520873096
        assert result.switch_overhead_cycles == 5000.0
        assert controller.measured_latencies == [228.94736842105263, 300.0]

    def test_miss_free_joins_and_exhaustion(self):
        """Segments that end without a miss keep the thread running;
        finite streams run out and switch out as ``done``."""
        first = [
            Segment(400, 200, ends_with_miss=False), Segment(300, 100),
            Segment(250, 250, ends_with_miss=False),
            Segment(1000, 400, ends_with_miss=False), Segment(500, 300),
        ]
        second = [
            Segment(2000, 1000), Segment(150, 100, ends_with_miss=False),
            Segment(700, 350),
        ]
        result = run_soe(
            [stream_from_segments(first), stream_from_segments(second)],
            limits=RunLimits(min_instructions=20_000),
        )
        assert result.cycles == 2800.0
        assert _thread_tuples(result) == [
            (2450.0, 1250.0, 2, 2, 0, 0),
            (2850.0, 1450.0, 2, 2, 0, 0),
        ]
        assert result.idle_cycles == 0.0
        assert result.switch_overhead_cycles == 100.0

    def test_zero_instruction_budget_at_dispatch(self):
        result = run_soe(
            _variable_pair(), _EveryThirdDispatchZeroBudget(), limits=_WARM_LIMITS
        )
        assert result.cycles == 77745.64139590945
        assert _thread_tuples(result) == [
            (90461.44711130626, 34442.64696755506, 5, 5, 110, 0),
            (45878.487407106986, 38232.07283925583, 51, 51, 20, 0),
        ]
        assert result.idle_cycles == 420.9215890985288
        assert result.switch_overhead_cycles == 4650.0

    def test_max_cycles_with_every_thread_idle(self):
        """Both threads wait on misses that resolve past the cap, so the
        run idles up to ``max_cycles`` and stops there."""
        result = run_soe(
            [uniform_stream(2.0, 1_000, seed=1), uniform_stream(1.5, 600, seed=2)],
            params=SoeParams(miss_lat=40_000.0),
            limits=RunLimits(min_instructions=1e9, max_cycles=1_000_000.0),
        )
        assert result.cycles == 1000000.0
        assert _thread_tuples(result) == [
            (25000.0, 12500.0, 25, 25, 0, 0),
            (15000.0, 10000.0, 25, 25, 0, 0),
        ]
        assert result.idle_cycles == 976250.0
        assert result.switch_overhead_cycles == 1250.0
