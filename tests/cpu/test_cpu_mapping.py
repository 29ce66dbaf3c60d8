"""Round-trip tests for the profile -> detailed-core-trace mapping."""

import pytest

from repro.core.controller import FairnessController, FairnessParams
from repro.cpu.soe_core import run_cpu_single_thread, run_cpu_soe
from repro.workloads.cpu_mapping import cpu_spec_for_profile
from repro.workloads.spec2000 import get_profile
from repro.workloads.tracegen import make_trace


class TestCpuSpecForProfile:
    def test_ipm_carries_over(self):
        spec = cpu_spec_for_profile(get_profile("swim"))
        assert spec.ipm == get_profile("swim").ipm

    def test_compute_profile_gets_high_ilp(self):
        eon = cpu_spec_for_profile(get_profile("eon"))
        mcf = cpu_spec_for_profile(get_profile("mcf"))
        assert eon.ilp > mcf.ilp

    def test_memory_profile_gets_more_loads(self):
        swim = cpu_spec_for_profile(get_profile("swim"))
        crafty = cpu_spec_for_profile(get_profile("crafty"))
        assert swim.load_fraction > crafty.load_fraction

    @pytest.mark.parametrize("name", ["eon", "gcc", "swim"])
    def test_emergent_miss_spacing_tracks_profile(self, name):
        profile = get_profile(name)
        spec = cpu_spec_for_profile(profile)
        result = run_cpu_single_thread(
            make_trace(spec, seed=3),
            min_instructions=12_000,
            warmup_instructions=6_000,
        )
        # Count memory-level fills per retired instruction from the
        # shared hierarchy statistics: demand misses every ~IPM.
        # (Loose bound: cold misses and prefetch-free streaming only.)
        stats = result.threads[0]
        assert stats.retired > 0
        # The single-thread run cannot count switch-misses; validate
        # via the SOE run below instead when IPM is small.
        if profile.ipm <= 2_000:
            # The warmup must cover the hot set's cold misses (the
            # profile's IPM describes steady state, not cold start).
            soe = run_cpu_soe(
                [make_trace(spec, seed=3, thread_index=0),
                 make_trace(cpu_spec_for_profile(get_profile("eon")),
                            seed=4, thread_index=1)],
                min_instructions=9_000,
                warmup_instructions=10_000,
            )
            misses = soe.threads[0].miss_switches
            assert misses > 0
            observed_ipm = soe.threads[0].retired / misses
            assert observed_ipm == pytest.approx(profile.ipm, rel=0.6)

    @pytest.fixture(scope="class")
    def gcc_eon(self):
        """gcc and eon as micro-op specs, alone and under SOE at F=0."""
        specs = (
            cpu_spec_for_profile(get_profile("gcc")),
            cpu_spec_for_profile(get_profile("eon")),
        )
        st = [
            run_cpu_single_thread(
                make_trace(spec, seed=index + 1, thread_index=index),
                min_instructions=10_000,
                warmup_instructions=5_000,
            ).total_ipc
            for index, spec in enumerate(specs)
        ]
        soe = run_cpu_soe(
            _gcc_eon_programs(specs),
            min_instructions=5_000,
            warmup_instructions=3_000,
        )
        return specs, st, soe

    def test_gcc_eon_starvation_reproduces_on_detailed_core(self, gcc_eon):
        """The paper's flagship pair, rebuilt at the micro-op level."""
        _specs, st, soe = gcc_eon
        speedups = [ipc / s for ipc, s in zip(soe.ipcs, st)]
        # gcc starves, eon is barely affected -- on the cycle-level
        # machine, from first principles.
        assert speedups[0] / speedups[1] < 0.35
        assert speedups[1] > 0.7

    def test_gcc_eon_half_fairness_more_than_doubles_it(self, gcc_eon):
        specs, st, soe = gcc_eon
        controller = FairnessController(
            2, FairnessParams(fairness_target=0.5, sample_period=5_000.0)
        )
        enforced = run_cpu_soe(
            _gcc_eon_programs(specs), controller,
            min_instructions=5_000, warmup_instructions=3_500,
        )
        assert _fairness(enforced, st) > 2 * _fairness(soe, st)
        assert enforced.total_ipc < soe.total_ipc

    def test_gcc_eon_switch_latency_near_paper_value(self, gcc_eon):
        specs, _st, _soe = gcc_eon
        result = run_cpu_soe(
            _gcc_eon_programs(specs),
            min_instructions=4_000, warmup_instructions=2_000,
        )
        # Paper Section 4.1: switch latency "usually accumulates to
        # around 25 cycles".
        assert 10 <= result.mean_switch_latency <= 40


def _gcc_eon_programs(specs):
    return [
        make_trace(specs[0], seed=1, thread_index=0),
        make_trace(specs[1], seed=2, thread_index=1),
    ]


def _fairness(run, st):
    speedups = [ipc / s for ipc, s in zip(run.ipcs, st)]
    return min(speedups) / max(speedups)
