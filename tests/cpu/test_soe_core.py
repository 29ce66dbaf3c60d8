"""Tests for SOE multithreading on the detailed core."""

import pytest

from repro.core.controller import FairnessController, FairnessParams
from repro.core.policy import TimeSharingPolicy
from repro.cpu.machine import MachineConfig
from repro.cpu.soe_core import run_cpu_single_thread, run_cpu_soe
from repro.errors import ConfigurationError
from repro.telemetry import RingBufferSink, tracing
from repro.workloads.tracegen import CpuWorkloadSpec, make_trace

#: Small-footprint specs so tests warm up fast.
FAST_COMPUTE = CpuWorkloadSpec(
    name="t-compute", ilp=8, ipm=20_000.0, load_fraction=0.2,
    store_fraction=0.05, branch_fraction=0.10, branch_noise=0.02,
    hot_bytes=4 * 1024, code_bytes=2 * 1024,
)
FAST_MEMORY = CpuWorkloadSpec(
    name="t-memory", ilp=6, ipm=400.0, load_fraction=0.3,
    store_fraction=0.05, branch_fraction=0.08, branch_noise=0.02,
    hot_bytes=4 * 1024, code_bytes=2 * 1024,
)


def programs(spec_a=FAST_COMPUTE, spec_b=FAST_MEMORY):
    return [
        make_trace(spec_a, seed=1, thread_index=0),
        make_trace(spec_b, seed=2, thread_index=1),
    ]


@pytest.fixture(scope="module")
def baseline_run():
    return run_cpu_soe(programs(), min_instructions=4_000, warmup_instructions=3_000)


@pytest.fixture(scope="module")
def single_thread_ipcs():
    results = []
    for index, spec in enumerate((FAST_COMPUTE, FAST_MEMORY)):
        result = run_cpu_single_thread(
            make_trace(spec, seed=index + 1, thread_index=index),
            min_instructions=8_000,
            warmup_instructions=4_000,
        )
        results.append(result.total_ipc)
    return results


class TestSoeSwitching:
    def test_misses_trigger_switches(self, baseline_run):
        assert baseline_run.threads[1].miss_switches > 0

    def test_both_threads_progress(self, baseline_run):
        # min_instructions counts lifetime retirement; the measured
        # window starts after warmup, so assert substantial progress.
        for stats in baseline_run.threads:
            assert stats.retired >= 1_000

    def test_switch_latency_near_paper_value(self, baseline_run):
        # Paper: "usually accumulates to around 25 cycles".
        assert 10 <= baseline_run.mean_switch_latency <= 40

    def test_memory_thread_starves_without_fairness(
        self, baseline_run, single_thread_ipcs
    ):
        speedups = [
            ipc / st for ipc, st in zip(baseline_run.ipcs, single_thread_ipcs)
        ]
        assert min(speedups) / max(speedups) < 0.3

    def test_soe_beats_mean_single_thread_throughput(
        self, baseline_run, single_thread_ipcs
    ):
        mean_st = sum(single_thread_ipcs) / 2
        assert baseline_run.total_ipc > mean_st

    def test_requires_two_programs(self):
        with pytest.raises(ConfigurationError):
            run_cpu_soe(programs()[:1])


class TestPoliciesOnDetailedCore:
    def test_fairness_controller_improves_fairness(self, baseline_run,
                                                    single_thread_ipcs):
        controller = FairnessController(
            2, FairnessParams(fairness_target=0.5, sample_period=4_000.0)
        )
        result = run_cpu_soe(
            programs(), controller,
            min_instructions=5_000, warmup_instructions=4_000,
        )
        def fairness(run):
            speedups = [
                ipc / st for ipc, st in zip(run.ipcs, single_thread_ipcs)
            ]
            return min(speedups) / max(speedups)

        assert fairness(result) > 3 * fairness(baseline_run)
        assert result.threads[0].forced_switches > 0

    def test_enforcement_costs_throughput(self, baseline_run, single_thread_ipcs):
        controller = FairnessController(
            2, FairnessParams(fairness_target=1.0, sample_period=4_000.0)
        )
        result = run_cpu_soe(
            programs(), controller,
            min_instructions=5_000, warmup_instructions=4_000,
        )
        assert result.total_ipc < baseline_run.total_ipc

    def test_tracing_does_not_change_the_run(self):
        """A traced run emits ``switch`` events from the pipeline's
        switch-out sites and binds the same policy hooks as an untraced
        run; the result must not change."""
        def run():
            controller = FairnessController(
                2, FairnessParams(fairness_target=0.5, sample_period=4_000.0)
            )
            return run_cpu_soe(
                programs(), controller,
                min_instructions=3_000, warmup_instructions=1_000,
            )

        untraced = run()
        sink = RingBufferSink()
        with tracing(sink):
            traced = run()
        assert traced == untraced
        assert sum(t.forced_switches for t in traced.threads) > 0
        switches = [e for e in sink.events if e["event"] == "switch"]
        assert switches and all(e["substrate"] == "cpu" for e in switches)

    def test_time_sharing_splits_cycles(self):
        policy = TimeSharingPolicy(1_000)
        result = run_cpu_soe(
            programs(FAST_COMPUTE, FAST_COMPUTE), policy,
            min_instructions=10_000, warmup_instructions=4_000,
        )
        cycles = [t.run_cycles for t in result.threads]
        assert cycles[0] == pytest.approx(cycles[1], rel=0.4)
        assert sum(t.cycle_quota_switches for t in result.threads) > 0

    def test_max_cycles_quota_bounds_missless_threads(self):
        config = MachineConfig(max_cycles_quota=2_000)
        result = run_cpu_soe(
            programs(FAST_COMPUTE, FAST_COMPUTE),
            config=config,
            min_instructions=4_000,
            warmup_instructions=2_000,
        )
        assert sum(t.cycle_quota_switches for t in result.threads) > 0
        for stats in result.threads:
            assert stats.retired >= 1_000


class TestSharedState:
    def test_caches_shared_between_threads(self):
        # Two threads with identical address spaces (same thread_index)
        # share lines; distinct spaces compete for capacity instead.
        result = run_cpu_soe(
            [
                make_trace(FAST_MEMORY, seed=1, thread_index=0),
                make_trace(FAST_MEMORY, seed=2, thread_index=1),
            ],
            min_instructions=3_000,
            warmup_instructions=1_500,
        )
        assert result.l2_miss_rate > 0.0
