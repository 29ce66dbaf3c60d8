"""Tests for the policy zoo: registry, configs, and the new policies."""

import math

import pytest

from repro.core.controller import FairnessController
from repro.core.drr import DEFAULT_QUANTUM, DrrArbiterPolicy
from repro.core.icount import IcountPolicy
from repro.core.lfoc import DEFAULT_IPM_THRESHOLD, LfocClusterPolicy
from repro.core.policies import (
    PolicyConfig,
    PolicyParam,
    PolicySpec,
    get_policy,
    policy_names,
    register_policy,
    render_policy_table,
)
from repro.core.policy import SwitchPolicy, TimeSharingPolicy
from repro.engine.soe import RunLimits, SoeParams, run_soe
from repro.errors import ConfigurationError, SimulationError
from repro.workloads.synthetic import uniform_stream

BUILTINS = (
    "none",
    "fairness",
    "rr-timeshare",
    "icount",
    "lfoc-cluster",
    "drr-arbiter",
)


class TestRegistry:
    def test_builtins_registered_in_order(self):
        assert policy_names() == BUILTINS

    def test_unknown_name_lists_known_policies(self):
        with pytest.raises(ConfigurationError, match="rr-timeshare"):
            get_policy("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_policy(get_policy("fairness"))

    def test_param_default_lookup(self):
        spec = get_policy("rr-timeshare")
        assert spec.param_default("cycle_quota") == 400.0
        with pytest.raises(ConfigurationError, match="no parameter"):
            spec.param_default("quantum")

    def test_render_table_lists_every_policy_and_parameter(self):
        text = render_policy_table()
        for name in BUILTINS:
            assert name in text
        assert "cycle_quota" in text
        assert "ipm_threshold" in text
        assert "quantum" in text


class TestPolicyConfig:
    def test_unknown_name_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="unknown policy"):
            PolicyConfig(name="nope")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"level": -0.1},
            {"level": 1.1},
            {"miss_lat": -1.0},
            {"sample_period": 0.0},
        ],
    )
    def test_invalid_scalars_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            PolicyConfig(name="fairness", **kwargs)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigurationError, match="no parameter"):
            PolicyConfig(name="drr-arbiter", params=(("cycle_quota", 1.0),))

    def test_duplicate_parameters_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            PolicyConfig(
                name="drr-arbiter",
                params=(("quantum", 1.0), ("quantum", 2.0)),
            )

    def test_params_are_canonically_sorted(self):
        spec = PolicySpec(
            name="two-knob-test",
            title="t",
            reference="r",
            params=(PolicyParam("b", 1.0, "d"), PolicyParam("a", 2.0, "d")),
            factory=lambda n, c: None,
        )
        register_policy(spec)
        try:
            config = PolicyConfig(
                name="two-knob-test", params=(("b", 9.0), ("a", 8.0))
            )
            assert config.params == (("a", 8.0), ("b", 9.0))
        finally:
            from repro.core import policies

            del policies._REGISTRY["two-knob-test"]

    def test_param_falls_back_to_schema_default(self):
        config = PolicyConfig(name="drr-arbiter")
        assert config.param("quantum") == DEFAULT_QUANTUM
        override = PolicyConfig(name="drr-arbiter", params=(("quantum", 9.0),))
        assert override.param("quantum") == 9.0


class TestFactories:
    def test_none_builds_no_policy(self):
        assert PolicyConfig(name="none").make(2) is None

    def test_fairness_builds_the_paper_controller(self):
        policy = PolicyConfig(name="fairness", level=0.5).make(2)
        assert isinstance(policy, FairnessController)
        assert policy.params.fairness_target == 0.5

    def test_rr_timeshare_honors_the_quota_override(self):
        policy = PolicyConfig(
            name="rr-timeshare", params=(("cycle_quota", 123.0),)
        ).make(2)
        assert isinstance(policy, TimeSharingPolicy)
        assert policy.cycle_quota == 123.0

    def test_icount_and_lfoc_and_drr_build_their_types(self):
        assert isinstance(PolicyConfig(name="icount").make(2), IcountPolicy)
        assert isinstance(
            PolicyConfig(name="lfoc-cluster").make(2), LfocClusterPolicy
        )
        assert isinstance(
            PolicyConfig(name="drr-arbiter").make(2), DrrArbiterPolicy
        )


class TestIcountPolicy:
    def test_prefers_the_thread_with_fewest_retired(self):
        policy = IcountPolicy(3)
        policy.on_retired(0, 100, 40)
        policy.on_retired(1, 10, 4)
        policy.on_retired(2, 50, 20)
        assert policy.select_thread((0, 1, 2), 0.0) == 1

    def test_ties_break_toward_lower_thread_id(self):
        policy = IcountPolicy(2)
        assert policy.select_thread((0, 1), 0.0) == 0
        assert policy.select_thread((1,), 0.0) == 1

    def test_never_forces_a_switch(self):
        policy = IcountPolicy(2)
        policy.on_run_start(0, 0.0)
        assert policy.instruction_budget(0) == math.inf
        assert policy.cycle_budget(0) == math.inf
        assert policy.next_boundary(0.0) == math.inf


class TestDrrArbiterPolicy:
    def test_each_dispatch_grants_one_quantum(self):
        policy = DrrArbiterPolicy(2, quantum=1_000.0)
        policy.on_run_start(0, 0.0)
        assert policy.instruction_budget(0) == 1_000.0

    def test_unused_credit_carries_over(self):
        policy = DrrArbiterPolicy(2, quantum=1_000.0)
        policy.on_run_start(0, 0.0)
        policy.on_retired(0, 400.0, 160.0)  # miss after 400 instructions
        policy.on_run_start(0, 500.0)
        assert policy.instruction_budget(0) == pytest.approx(1_600.0)

    def test_budget_reaches_zero_when_quantum_is_spent(self):
        policy = DrrArbiterPolicy(1, quantum=1_000.0)
        policy.on_run_start(0, 0.0)
        policy.on_retired(0, 1_000.0, 400.0)
        assert policy.instruction_budget(0) == 0.0

    def test_invalid_construction_rejected(self):
        with pytest.raises(ConfigurationError):
            DrrArbiterPolicy(0)
        with pytest.raises(ConfigurationError):
            DrrArbiterPolicy(2, quantum=0.0)


class TestLfocClusterPolicy:
    def _boundary(self, policy, feeds):
        """Feed per-thread (instructions, cycles, misses) and sample."""
        for tid, (instructions, cycles, misses) in enumerate(feeds):
            policy.on_retired(tid, instructions, cycles)
            for _ in range(misses):
                policy.on_miss(tid, 0.0)
        policy.on_boundary(policy.next_boundary(0.0))

    def test_clusters_split_at_the_ipm_threshold(self):
        policy = LfocClusterPolicy(2, 1.0, ipm_threshold=5_000.0)
        # Thread 0 misses every 1k instructions (hungry); thread 1
        # every 100k (light).
        self._boundary(policy, [(100_000, 40_000, 100), (100_000, 40_000, 1)])
        assert policy.clusters == ((0,), (1,))

    def test_light_thread_is_throttled_lone_hungry_is_not(self):
        policy = LfocClusterPolicy(2, 1.0, ipm_threshold=5_000.0)
        self._boundary(policy, [(100_000, 40_000, 100), (100_000, 40_000, 1)])
        quotas = policy.quotas
        assert quotas[0] == math.inf  # lone hungry thread: unenforced
        assert quotas[1] < math.inf  # light thread: globally throttled

    def test_hungry_pair_gets_cluster_local_quotas(self):
        policy = LfocClusterPolicy(2, 1.0, ipm_threshold=5_000.0)
        self._boundary(policy, [(100_000, 40_000, 100), (100_000, 40_000, 50)])
        assert policy.clusters == ((0, 1), ())
        assert all(q < math.inf for q in policy.quotas)

    def test_all_light_degenerates_to_global_enforcement(self):
        policy = LfocClusterPolicy(2, 1.0, ipm_threshold=5_000.0)
        self._boundary(policy, [(100_000, 40_000, 1), (200_000, 40_000, 1)])
        assert policy.clusters == ((), (0, 1))
        assert all(q < math.inf for q in policy.quotas)

    def test_invalid_construction_rejected(self):
        with pytest.raises(ConfigurationError):
            LfocClusterPolicy(2, 1.5)
        with pytest.raises(ConfigurationError):
            LfocClusterPolicy(2, 1.0, ipm_threshold=0.0)


class _PickHighest(SwitchPolicy):
    """Reverse the dispatch preference (highest ready thread id)."""

    def select_thread(self, ready, now):
        return max(ready)


class _PickInvalid(SwitchPolicy):
    def select_thread(self, ready, now):
        return 99


class _PickNothing(SwitchPolicy):
    """Overrides the hook but always defers to the default rotation."""

    def select_thread(self, ready, now):
        return None


def _streams():
    return [
        uniform_stream(2.5, 15_000, seed=1),
        uniform_stream(2.5, 1_000, seed=2),
    ]


LIMITS = RunLimits(min_instructions=200_000)
PARAMS = SoeParams(miss_lat=300, switch_lat=25)


class TestSelectThreadIntegration:
    def test_deferring_override_matches_default_round_robin(self):
        from repro.core.policy import NoFairnessPolicy

        base = run_soe(_streams(), NoFairnessPolicy(), PARAMS, LIMITS)
        defer = run_soe(_streams(), _PickNothing(), PARAMS, LIMITS)
        assert [t.retired for t in base.threads] == [
            t.retired for t in defer.threads
        ]
        assert base.cycles == defer.cycles

    def test_custom_selection_changes_the_schedule(self):
        base = run_soe(_streams(), _PickNothing(), PARAMS, LIMITS)
        flipped = run_soe(_streams(), _PickHighest(), PARAMS, LIMITS)
        assert [t.retired for t in base.threads] != [
            t.retired for t in flipped.threads
        ]

    def test_selecting_a_non_ready_thread_is_a_simulation_error(self):
        with pytest.raises(SimulationError, match="ready set"):
            run_soe(_streams(), _PickInvalid(), PARAMS, LIMITS)
