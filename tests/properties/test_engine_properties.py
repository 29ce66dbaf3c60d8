"""Property-based tests for the segment engine and the mechanism."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.controller import FairnessController, FairnessParams
from repro.core.counters import CounterSample
from repro.core.deficit import DeficitPolicy
from repro.core.model import SoeModel, ThreadParams
from repro.core.quota import quotas_from_estimates
from repro.engine.singlethread import run_single_thread
from repro.engine.soe import RunLimits, SoeParams, run_soe
from repro.workloads.synthetic import uniform_stream

ipc_values = st.floats(min_value=0.5, max_value=3.0)
ipm_values = st.floats(min_value=200.0, max_value=30_000.0)


class TestEngineAgainstModel:
    @given(ipc_values, ipm_values, ipc_values, ipm_values)
    @settings(max_examples=25, deadline=None)
    def test_unenforced_engine_matches_eq2(self, ipc1, ipm1, ipc2, ipm2):
        """For deterministic workloads the engine must reproduce the
        closed-form model (when miss resolution is covered by the
        partner's run, which Eq. 2 assumes)."""
        model = SoeModel(
            [ThreadParams(ipc1, ipm1), ThreadParams(ipc2, ipm2)],
            miss_lat=300,
            switch_lat=25,
        )
        result = run_soe(
            [uniform_stream(ipc1, ipm1), uniform_stream(ipc2, ipm2)],
            params=SoeParams(miss_lat=300, switch_lat=25),
            limits=RunLimits(min_instructions=max(ipm1, ipm2) * 20),
        )
        # Eq. 2 assumes switches happen only on misses: exclude runs
        # where the engine's maximum-cycles quota fired (CPM near 50k)
        # or where a miss outlived the partner's dispatch (idle).
        quota_switches = sum(t.cycle_quota_switches for t in result.threads)
        if result.idle_cycles == 0 and quota_switches == 0:
            for measured, predicted in zip(result.ipcs, model.soe_ipcs(0.0)):
                assert measured == predicted or abs(measured - predicted) / predicted < 0.05

    @given(ipc_values, ipm_values)
    @settings(max_examples=25, deadline=None)
    def test_single_thread_matches_eq1(self, ipc, ipm):
        stream = uniform_stream(ipc, ipm)
        result = run_single_thread(stream, miss_lat=300, min_instructions=ipm * 20)
        expected = ipm / (ipm / ipc + 300)
        assert abs(result.ipc - expected) / expected < 0.01

    @given(ipc_values, ipm_values, ipc_values, ipm_values)
    @settings(max_examples=15, deadline=None)
    def test_window_accounting_complete(self, ipc1, ipm1, ipc2, ipm2):
        result = run_soe(
            [uniform_stream(ipc1, ipm1), uniform_stream(ipc2, ipm2)],
            params=SoeParams(miss_lat=300, switch_lat=25),
            limits=RunLimits(min_instructions=max(ipm1, ipm2) * 10),
        )
        accounted = (
            sum(t.run_cycles for t in result.threads)
            + result.idle_cycles
            + result.switch_overhead_cycles
        )
        assert math.isclose(accounted, result.cycles, rel_tol=1e-6)


class TestDeficitProperties:
    @given(
        st.floats(min_value=10, max_value=10_000),
        st.lists(st.floats(min_value=1, max_value=5_000), min_size=5, max_size=200),
    )
    @settings(max_examples=100, deadline=None)
    def test_deficit_preserves_total_quota(self, quota, miss_gaps):
        """Across any miss pattern, total granted = total consumed +
        final leftover (conservation)."""
        policy = DeficitPolicy(1, quota=quota)
        consumed = 0.0
        grants = 0
        for gap in miss_gaps:
            policy.on_run_start(0, 0.0)
            grants += 1
            run = min(policy.instruction_budget(0), gap)
            policy.on_retired(0, run, 1.0)
            consumed += run
        assert math.isclose(
            grants * quota, consumed + policy.deficit_remaining(0), rel_tol=1e-9
        )

    @given(
        st.floats(min_value=10, max_value=1_000),
        st.integers(min_value=50, max_value=500),
    )
    @settings(max_examples=50, deadline=None)
    def test_average_converges_without_misses(self, quota, rounds):
        policy = DeficitPolicy(1, quota=quota)
        total = 0.0
        for _ in range(rounds):
            policy.on_run_start(0, 0.0)
            run = policy.instruction_budget(0)
            policy.on_retired(0, run, 1.0)
            total += run
        assert math.isclose(total / rounds, quota, rel_tol=1e-9)


class TestQuotaProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=100, max_value=50_000),   # instructions
                st.floats(min_value=50, max_value=25_000),    # cycles
                st.integers(min_value=0, max_value=100),      # misses
            ),
            min_size=2,
            max_size=4,
        ),
        st.floats(min_value=0.05, max_value=1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_quotas_positive_and_capped(self, raw_samples, target):
        from repro.core.estimator import IpcStEstimator

        estimator = IpcStEstimator(len(raw_samples), 300)
        samples = [CounterSample(i, c, m) for i, c, m in raw_samples]
        estimates = estimator.update_all(samples)
        quotas = quotas_from_estimates(estimates, target, 300)
        for estimate, quota in zip(estimates, quotas):
            assert quota >= 1.0
            if math.isfinite(quota):
                assert quota <= max(estimate.ipm, 1.0) + 1e-9


class TestControllerProperties:
    @given(
        st.floats(min_value=0.1, max_value=1.0),
        st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_controller_boundaries_always_advance(self, target, n):
        controller = FairnessController(
            n, FairnessParams(fairness_target=target, sample_period=1_000.0)
        )
        time = 0.0
        for _ in range(20):
            boundary = controller.next_boundary(time)
            assert boundary > time
            controller.on_boundary(boundary)
            time = boundary
        assert len(controller.history) == 20
