"""Tests for the cross-policy frontier experiment.

The frontier's contract is the acceptance gate of the policy zoo: one
row per registered policy, computed on the shared supervised grid, and
bit-identical across job counts, cache state and checkpoint/resume. A reduced two-pair grid keeps the full sweep fast.
"""

import dataclasses

import pytest

from repro.core.policies import PolicyConfig, policy_names
from repro.engine.soe import run_soe
from repro.errors import ConfigurationError
from repro.experiments import frontier
from repro.experiments.common import EvalConfig
from repro.experiments.runner import ExecutionSettings, execution
from repro.workloads.pairs import evaluation_pairs

PAIRS = evaluation_pairs()[:2]


@pytest.fixture(scope="module")
def config():
    return EvalConfig(
        sample_period=100_000.0,
        min_instructions=400_000.0,
        warmup_instructions=200_000.0,
        st_min_instructions=300_000.0,
        fairness_levels=(0.0, 1.0),
    )


@pytest.fixture(scope="module")
def result(config):
    return frontier.run(config, pairs=PAIRS)


class TestFrontierShape:
    def test_one_row_per_registered_policy_in_order(self, result):
        assert result.policies == policy_names()
        assert len(result.policies) >= 5
        assert tuple(row.policy for row in result.rows) == result.policies

    def test_every_row_covers_every_pair(self, result):
        labels = tuple(pair.label for pair in PAIRS)
        assert result.pair_labels == labels
        for row in result.rows:
            assert tuple(p.pair_label for p in row.points) == labels

    def test_level_is_the_highest_configured(self, result):
        assert result.level == 1.0
        assert all(row.level == 1.0 for row in result.rows)

    def test_none_row_is_exactly_the_baseline(self, result):
        none_row = result.rows[0]
        assert none_row.policy == "none"
        assert none_row.mean_normalized_throughput == pytest.approx(1.0)
        assert none_row.min_normalized_throughput == pytest.approx(1.0)

    def test_enforcing_policies_raise_fairness_over_baseline(self, result):
        by_name = {row.policy: row for row in result.rows}
        baseline = by_name["none"].mean_fairness
        for name in ("fairness", "rr-timeshare", "lfoc-cluster"):
            assert by_name[name].mean_fairness > baseline

    def test_policy_subset_and_unknown_name(self, config):
        sub = frontier.run(config, pairs=PAIRS, policies=("none", "fairness"))
        assert sub.policies == ("none", "fairness")
        with pytest.raises(ConfigurationError, match="unknown policy"):
            frontier.run(config, pairs=PAIRS, policies=("nope",))
        with pytest.raises(ConfigurationError, match="at least one"):
            frontier.run(config, pairs=PAIRS, policies=())

    def test_needs_a_nonzero_level(self, config):
        flat = dataclasses.replace(config, fairness_levels=(0.0,))
        with pytest.raises(ConfigurationError, match="non-zero fairness"):
            frontier.run(flat, pairs=PAIRS)

    def test_render_mentions_every_policy(self, result):
        text = frontier.render(result)
        for name in result.policies:
            assert name in text
        assert "icount" in text  # including the degeneration note


class TestFrontierIdentity:
    def test_parallel_run_is_bit_identical(self, config, result):
        with execution(ExecutionSettings(jobs=2)):
            parallel = frontier.run(config, pairs=PAIRS)
        assert parallel == result

    def test_cache_and_resume_round_trip(self, config, result, tmp_path):
        checkpoint = tmp_path / "frontier.ckpt"
        with execution(
            ExecutionSettings(cache_dir=tmp_path / "cache", checkpoint=checkpoint)
        ):
            cold = frontier.run(config, pairs=PAIRS)
        assert cold == result
        for name in result.policies:
            journal = tmp_path / f"frontier.ckpt.{name}"
            assert journal.exists(), f"no per-policy journal for {name}"
        with execution(
            ExecutionSettings(cache_dir=tmp_path / "cache", checkpoint=checkpoint)
        ):
            warm = frontier.run(config, pairs=PAIRS)
        assert warm == result
        with execution(
            ExecutionSettings(checkpoint=checkpoint, resume=True)
        ):
            resumed = frontier.run(config, pairs=PAIRS)
        assert resumed == result


class TestRegistryDifferential:
    def test_rr_timeshare_factory_matches_direct_timesharing_policy(self):
        """The registry path must be the TimeSharingPolicy path, bitwise."""
        from repro.core.policy import TimeSharingPolicy
        from repro.engine.soe import RunLimits, SoeParams
        from repro.workloads.synthetic import uniform_stream

        def streams():
            return [
                uniform_stream(2.5, 15_000, seed=1),
                uniform_stream(2.5, 1_000, seed=2),
            ]

        params = SoeParams(miss_lat=300, switch_lat=25)
        limits = RunLimits(min_instructions=300_000)
        registry_policy = PolicyConfig(
            name="rr-timeshare", params=(("cycle_quota", 400.0),)
        ).make(2)
        direct = run_soe(streams(), TimeSharingPolicy(400.0), params, limits)
        via_registry = run_soe(streams(), registry_policy, params, limits)
        assert [t.retired for t in direct.threads] == [
            t.retired for t in via_registry.threads
        ]
        assert direct.cycles == via_registry.cycles
        assert [t.cycle_quota_switches for t in direct.threads] == [
            t.cycle_quota_switches for t in via_registry.threads
        ]
