"""Tests for the deficit counters (Section 3.2) as :class:`DeficitPolicy`
keeps them: granted at switch-in, consumed at retirement."""

import math

import pytest

from repro.core.controller import FairnessController, FairnessParams
from repro.core.deficit import DeficitPolicy
from repro.core.drr import DrrArbiterPolicy
from repro.core.lfoc import LfocClusterPolicy
from repro.core.policy import overridden_hook
from repro.errors import ConfigurationError


def _grant(policy, quota, thread_id=0):
    """Dispatch ``thread_id`` with ``quota`` as its quota in force."""
    policy._quotas[thread_id] = quota
    policy.on_run_start(thread_id, 0.0)


def _consume(policy, instructions, thread_id=0):
    policy.on_retired(thread_id, instructions, 1.0)


class TestDeficitCounter:
    def test_starts_at_zero(self):
        policy = DeficitPolicy(1)
        assert policy.deficit_remaining(0) == 0.0
        assert policy.instruction_budget(0) == 0.0

    def test_grant_increments_not_resets(self):
        # The DRR carry-over: unused quota adds to the next grant.
        policy = DeficitPolicy(1)
        _grant(policy, 1_000)
        _consume(policy, 400)  # miss after 400 instructions
        _grant(policy, 1_000)
        assert policy.deficit_remaining(0) == pytest.approx(1_600)

    def test_consume_decrements(self):
        policy = DeficitPolicy(1)
        _grant(policy, 100)
        _consume(policy, 30)
        assert policy.deficit_remaining(0) == pytest.approx(70)
        assert policy.instruction_budget(0) == pytest.approx(70)

    def test_exhaustion_at_zero(self):
        policy = DeficitPolicy(1)
        _grant(policy, 50)
        _consume(policy, 50)
        assert policy.instruction_budget(0) == 0.0

    def test_consume_clamps_at_zero(self):
        policy = DeficitPolicy(1)
        _grant(policy, 10)
        _consume(policy, 15)
        assert policy.deficit_remaining(0) == 0.0

    def test_average_instructions_per_switch_converges(self):
        # The whole point of deficit counting: with misses cutting every
        # dispatch short, the average instructions per switch still
        # converges to the quota.
        quota = 1_000.0
        miss_every = 700.0  # miss arrives before the quota each time
        policy = DeficitPolicy(1, quota=quota)
        retired = 0.0
        switches = 0
        for _ in range(1_000):
            policy.on_run_start(0, 0.0)
            # run until deficit exhausted or a miss, whichever first
            run = min(policy.instruction_budget(0), miss_every)
            _consume(policy, run)
            retired += run
            switches += 1
        assert retired / switches == pytest.approx(quota, rel=0.35)

    def test_infinite_quota(self):
        policy = DeficitPolicy(1)
        policy.on_run_start(0, 0.0)  # the initial quota is inf
        _consume(policy, 1e12)
        assert policy.deficit_remaining(0) == math.inf

    def test_finite_grant_after_infinite_resets(self):
        # Leftover from an unenforced window is meaningless.
        policy = DeficitPolicy(1)
        _grant(policy, math.inf)
        _grant(policy, 500)
        assert policy.deficit_remaining(0) == pytest.approx(500)

    def test_cap_bounds_accumulation(self):
        policy = DeficitPolicy(1, quota=1_000, cap=1_500)
        policy.on_run_start(0, 0.0)
        policy.on_run_start(0, 0.0)
        assert policy.deficit_remaining(0) == pytest.approx(1_500)

    def test_rejects_negative_quota(self):
        with pytest.raises(ConfigurationError):
            _grant(DeficitPolicy(1), -1)
        with pytest.raises(ConfigurationError):
            DeficitPolicy(1, quota=-1)

    def test_rejects_negative_consumption(self):
        with pytest.raises(ConfigurationError):
            _consume(DeficitPolicy(1), -1)

    def test_rejects_non_positive_cap(self):
        with pytest.raises(ConfigurationError):
            DeficitPolicy(1, cap=0)


class TestDeficitPolicy:
    def test_threads_are_independent(self):
        policy = DeficitPolicy(2, quota=100)
        policy.on_run_start(0, 0.0)
        _consume(policy, 30, thread_id=0)
        assert policy.deficit_remaining(0) == pytest.approx(70)
        assert policy.deficit_remaining(1) == 0.0

    def test_window_close_keeps_the_deficit(self):
        # A Delta boundary resets the counters, not the carried credit.
        policy = DeficitPolicy(1, quota=100, sample_period=10.0)
        policy.on_run_start(0, 0.0)
        _consume(policy, 30)
        policy.sample_and_reset(10.0)
        assert policy.deficit_remaining(0) == pytest.approx(70)

    def test_sample_and_reset_advances_the_schedule(self):
        policy = DeficitPolicy(1, sample_period=10.0)
        assert policy.next_boundary(0.0) == 10.0
        policy.sample_and_reset(10.0)
        assert policy.next_boundary(10.0) == 20.0
        # A late firing skips every boundary it passed.
        policy.sample_and_reset(45.0)
        assert policy.next_boundary(45.0) == 50.0

    def test_no_schedule_by_default(self):
        policy = DeficitPolicy(1)
        assert policy.next_boundary(0.0) == math.inf
        policy.sample_and_reset(1e9)
        assert policy.next_boundary(1e9) == math.inf

    # NaN parameters: tests/core/test_nonfinite_params.py.
    @pytest.mark.parametrize("cap", [math.inf, -1.0])
    def test_rejects_infinite_or_negative_cap(self, cap):
        with pytest.raises(ConfigurationError):
            DeficitPolicy(1, cap=cap)

    def test_rejects_zero_quota(self):
        with pytest.raises(ConfigurationError):
            DeficitPolicy(1, quota=0.0)

    @pytest.mark.parametrize("period", [0.0, -5.0])
    def test_rejects_non_positive_sample_period(self, period):
        with pytest.raises(ConfigurationError):
            DeficitPolicy(1, sample_period=period)

    def test_rejects_no_threads(self):
        with pytest.raises(ConfigurationError):
            DeficitPolicy(0)

    @pytest.mark.parametrize(
        "cls", [FairnessController, LfocClusterPolicy, DrrArbiterPolicy]
    )
    def test_one_implementation_of_the_per_event_hooks(self, cls):
        # The deficit policies differ only in their quota rule; every
        # per-event hook is the base's (a controller that measures miss
        # latency binds its own ``on_miss`` per instance).
        assert issubclass(cls, DeficitPolicy)
        for hook in ("on_run_start", "instruction_budget", "on_retired",
                     "on_miss", "next_boundary"):
            assert getattr(cls, hook) is getattr(DeficitPolicy, hook)

    @pytest.mark.parametrize("measure", [False, True])
    def test_controller_binds_the_measuring_miss_hook_only_when_measuring(
        self, measure
    ):
        controller = FairnessController(
            2, FairnessParams(fairness_target=0.5, measure_miss_latency=measure)
        )
        hook = overridden_hook(controller, "on_miss")
        plain = hook.__func__ is DeficitPolicy.on_miss
        assert plain is not measure
        controller.on_retired(0, 10_000, 5_000)
        controller.on_retired(1, 10_000, 5_000)
        hook(1, 0.0, 40.0)
        assert controller._misses == [0, 1]
        controller.on_boundary(250_000.0)
        expected = [300.0, 40.0] if measure else None
        assert controller.measured_latencies == expected
