"""Integration tests spanning the package's layers.

The strongest claims of the reproduction are cross-cutting: the same
FairnessController object drives both simulators; the segment engine
agrees with the closed-form model; the detailed core exhibits the same
qualitative phenomena (starvation, enforcement, throughput cost) as the
segment engine does at scale.
"""

import pytest

from repro.core.controller import FairnessController, FairnessParams
from repro.core.model import SoeModel, ThreadParams
from repro.cpu.soe_core import run_cpu_single_thread, run_cpu_soe
from repro.engine.singlethread import run_single_thread
from repro.engine.soe import RunLimits, SoeParams, run_soe
from repro.workloads.synthetic import uniform_stream
from repro.workloads.tracegen import CpuWorkloadSpec, make_trace

COMPUTE = CpuWorkloadSpec(
    name="i-compute", ilp=8, ipm=25_000.0, load_fraction=0.2,
    store_fraction=0.05, branch_fraction=0.10, branch_noise=0.02,
    hot_bytes=4 * 1024, code_bytes=2 * 1024,
)
MEMORY = CpuWorkloadSpec(
    name="i-memory", ilp=6, ipm=450.0, load_fraction=0.3,
    store_fraction=0.05, branch_fraction=0.08, branch_noise=0.02,
    hot_bytes=4 * 1024, code_bytes=2 * 1024,
)


class TestSameControllerBothSubstrates:
    """One policy class, two machines (the paper's architectural claim)."""

    def test_controller_enforces_on_segment_engine(self):
        controller = FairnessController(
            2, FairnessParams(fairness_target=0.5)
        )
        streams = [uniform_stream(2.5, 15_000, seed=1),
                   uniform_stream(2.5, 1_000, seed=2)]
        result = run_soe(
            streams, controller, SoeParams(),
            RunLimits(min_instructions=1_200_000, warmup_instructions=800_000),
        )
        st = [
            run_single_thread(uniform_stream(2.5, 15_000), 300,
                              min_instructions=500_000).ipc,
            run_single_thread(uniform_stream(2.5, 1_000), 300,
                              min_instructions=500_000).ipc,
        ]
        assert result.achieved_fairness(st) == pytest.approx(0.5, abs=0.05)

    def test_controller_enforces_on_detailed_core(self):
        st = []
        for index, spec in enumerate((COMPUTE, MEMORY)):
            run = run_cpu_single_thread(
                make_trace(spec, seed=index + 1, thread_index=index),
                min_instructions=8_000, warmup_instructions=4_000,
            )
            st.append(run.total_ipc)

        def fairness_of(run):
            speedups = [ipc / s for ipc, s in zip(run.ipcs, st)]
            return min(speedups) / max(speedups)

        programs = lambda: [
            make_trace(COMPUTE, seed=1, thread_index=0),
            make_trace(MEMORY, seed=2, thread_index=1),
        ]
        baseline = run_cpu_soe(
            programs(), min_instructions=4_000, warmup_instructions=3_000
        )
        controller = FairnessController(
            2, FairnessParams(fairness_target=0.5, sample_period=4_000.0)
        )
        enforced = run_cpu_soe(
            programs(), controller,
            min_instructions=5_000, warmup_instructions=4_000,
        )
        assert fairness_of(baseline) < 0.2
        assert fairness_of(enforced) > fairness_of(baseline) * 2
        assert enforced.total_ipc < baseline.total_ipc


class TestEngineModelAgreement:
    @pytest.mark.parametrize(
        "ipc1,ipm1,ipc2,ipm2",
        [
            (2.5, 15_000, 2.5, 1_000),
            (2.0, 4_000, 1.5, 900),
            (3.0, 20_000, 1.0, 500),
        ],
    )
    def test_enforced_ipcs_match_model(self, ipc1, ipm1, ipc2, ipm2):
        model = SoeModel(
            [ThreadParams(ipc1, ipm1), ThreadParams(ipc2, ipm2)], 300, 25
        )
        controller = FairnessController(2, FairnessParams(fairness_target=1.0))
        result = run_soe(
            [uniform_stream(ipc1, ipm1, seed=1), uniform_stream(ipc2, ipm2, seed=2)],
            controller,
            SoeParams(),
            RunLimits(min_instructions=1_200_000, warmup_instructions=900_000),
        )
        predicted = model.soe_ipcs(1.0)
        if result.idle_cycles == 0:
            for measured, expected in zip(result.ipcs, predicted):
                assert measured == pytest.approx(expected, rel=0.05)


class TestWorkloadDeterminismAcrossLayers:
    def test_same_seed_same_results_everywhere(self):
        from repro.experiments.common import EvalConfig
        from repro.experiments.runner import compute_pair
        from repro.workloads.pairs import BenchmarkPair

        config = EvalConfig.quick()
        a = compute_pair(BenchmarkPair("gcc", "eon"), config)
        b = compute_pair(BenchmarkPair("gcc", "eon"), config)
        assert a.ipc_st == b.ipc_st
        for level in config.fairness_levels:
            assert a.runs[level].ipcs == b.runs[level].ipcs
