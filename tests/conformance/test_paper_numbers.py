"""The paper's published numbers, asserted at the default scale.

Each check pins one number or claim from the paper (Table 2, Figs. 3
and 5-8, the Section 6 time-sharing example, and the mechanism
ablations) within the tolerance EXPERIMENTS.md states for it, so a
change to the kernel, the controller or the workload generators that
moves a reproduced result fails tier-1. The evaluation grid behind
Figs. 6-8 is computed once per module.
"""

import dataclasses

import pytest

from repro.experiments import (
    ablations,
    fig3,
    fig5,
    fig6,
    fig7,
    fig8,
    table2,
    timesharing,
    validation,
)
from repro.experiments.common import EvalConfig
from repro.experiments.runner import run_grid


@pytest.fixture(scope="module")
def eval_config():
    return EvalConfig()


@pytest.fixture(scope="module")
def pair_grid(eval_config):
    """The 16-pair evaluation grid shared by Figs. 6, 7 and 8."""
    return run_grid(eval_config).results


class TestTable2:
    @pytest.fixture(scope="class")
    def result(self):
        return table2.run(
            config=dataclasses.replace(
                EvalConfig(),
                min_instructions=1_500_000,
                warmup_instructions=1_000_000,
            )
        )

    def test_unenforced_slowdowns(self, result):
        rows = {(r.fairness_target, r.thread): r for r in result.analytical}
        # Paper: thread 1's IPC drops by 1.02x, thread 2's by 9.2x at F=0.
        assert rows[(0.0, 0)].slowdown_factor == pytest.approx(1.02, abs=0.01)
        assert rows[(0.0, 1)].slowdown_factor == pytest.approx(9.2, abs=0.1)

    def test_f1_equalizes_speedups(self, result):
        f1 = [r for r in result.simulated if r.fairness_target == 1.0]
        # Paper Section 6: both speedups adjust to ~0.63 at F=1.
        assert f1[0].speedup == pytest.approx(0.63, abs=0.04)
        assert f1[1].speedup == pytest.approx(0.63, abs=0.04)

    def test_enforced_quota(self, result):
        quotas = {
            (r.fairness_target, r.thread): r.quota for r in result.simulated
        }
        # Paper: the first thread is forced to switch every ~1,667
        # instructions at F=1.
        assert quotas[(1.0, 0)] == pytest.approx(1_667, rel=0.02)


class TestFig3:
    @pytest.fixture(scope="class")
    def result(self):
        return fig3.run()

    def test_equal_ipc_mild_degradation(self, result):
        for series in result.series:
            if series.ipc_no_miss[0] == series.ipc_no_miss[1]:
                # Paper: "throughput degrades by up to 4%".
                assert min(series.throughput_change) > -0.05

    def test_mixed_ipc_envelope(self, result):
        # Paper: "can degrade by up to 15% or improve by up to 10%".
        assert -0.20 < result.max_degradation() < -0.08
        assert 0.05 < result.max_improvement() < 0.15

    def test_improvement_biases_toward_faster_thread(self, result):
        improving = [s for s in result.series if s.ipc_no_miss == (2.0, 3.0)]
        degrading = [s for s in result.series if s.ipc_no_miss == (3.0, 2.0)]
        # Enforcement moves cycles to the *slower-CPM* thread; when that
        # thread also retires faster (the [2,3] cases), throughput
        # improves.
        assert all(max(s.throughput_change) > 0 for s in improving)
        assert all(min(s.throughput_change) < 0 for s in degrading)


class TestFig5:
    @pytest.fixture(scope="class")
    def result(self):
        config = EvalConfig(min_instructions=1_200_000, warmup_instructions=0.0)
        return fig5.run(config)

    def test_estimates_track_real_ipc_st(self, result):
        # Paper 5.1.1: "the estimated IPC_ST closely tracks the real".
        # eon sees only a handful of misses per Delta window, so its
        # estimate is noisier; ~25% mean deviation still tracks the level.
        assert all(result.estimation_error(t) < 0.25 for t in range(2))

    def test_estimates_usually_slightly_lower(self, result):
        # Paper 5.1.1: "usually slightly lower than the real IPC_ST".
        assert result.estimate_is_usually_lower(0)

    def test_enforcement_rescues_starved_thread(self, result):
        # Paper: gcc runs ~20x faster with F=1/4; our substitute
        # workloads give a smaller but still multi-x factor.
        assert result.starved_thread_improvement() > 2.0

    def test_interval_fairness_near_target(self, result):
        median = sorted(result.fairness)[len(result.fairness) // 2]
        assert median == pytest.approx(0.25, abs=0.12)


class TestFig6:
    def test_average_speedup_ladder(self, eval_config, pair_grid):
        ladder = fig6.run(eval_config, pairs=pair_grid).speedup_ladder()
        # Paper: +24% / +21% / +19% / +15% for F = 0, 1/4, 1/2, 1.
        assert ladder[0.0] == pytest.approx(0.24, abs=0.08)
        assert ladder[1.0] == pytest.approx(0.15, abs=0.08)
        values = [ladder[level] for level in sorted(ladder)]
        assert values == sorted(values, reverse=True)

    def test_homogeneous_pairs_keep_throughput(self, eval_config, pair_grid):
        result = fig6.run(eval_config, pairs=pair_grid)
        drops = [
            1.0 - p.normalized_throughput(1.0)
            for p in result.pairs
            if p.pair.is_homogeneous
        ]
        # Paper: "fairness enforcement has only negligible effect on the
        # throughput when IPC_ST of the two threads is roughly the same".
        assert max(drops) < 0.03


class TestFig7:
    @pytest.fixture(scope="class")
    def result(self, eval_config, pair_grid):
        return fig7.run(eval_config, pairs=pair_grid)

    def test_average_degradations(self, result):
        degradations = {
            level: result.average_degradation(level)
            for level in result.enforced_levels
        }
        # Paper: 2.2% / 3.7% / 7.2% average loss at F = 1/4, 1/2, 1.
        assert degradations[0.25] == pytest.approx(0.022, abs=0.015)
        assert degradations[0.5] == pytest.approx(0.037, abs=0.02)
        assert degradations[1.0] == pytest.approx(0.072, abs=0.03)
        ordered = [degradations[level] for level in sorted(degradations)]
        assert ordered == sorted(ordered)

    def test_forced_switch_rate_grows_with_f(self, result):
        rates = [
            result.average_forced_switch_rate(level)
            for level in result.enforced_levels
        ]
        assert rates == sorted(rates)
        assert rates[-1] > 0

    def test_loss_correlates_with_forced_switches(self, result):
        # Paper: "there is a high correlation between the number of
        # forced thread switches and the effect on the throughput".
        assert result.degradation_correlates_with_forced_switches(1.0) > 0.5


class TestFig8:
    @pytest.fixture(scope="class")
    def result(self, eval_config, pair_grid):
        return fig8.run(eval_config, pairs=pair_grid)

    def test_over_a_third_unfair_without_enforcement(self, result):
        # Paper: "over a third of our runs achieved poor fairness in
        # which one thread ran extremely slowly (10 to 100 times
        # slower)".
        assert result.unfair_run_fraction(0.1) >= 1 / 3

    def test_truncated_means_close_to_targets(self, result):
        summaries = {level: result.summary(level) for level in (0.25, 0.5, 1.0)}
        assert summaries[0.25].mean == pytest.approx(0.25, rel=0.25)
        assert summaries[0.5].mean == pytest.approx(0.5, rel=0.25)
        # Accuracy degrades as F rises (paper Fig. 8 right); the F=1
        # mean sits visibly below the target but well above 1/2.
        assert 0.6 < summaries[1.0].mean <= 1.0

    def test_enforcement_tracks_target_on_unfair_runs(self, result):
        deviations = [
            abs(p.achieved_fairness(0.5) - 0.5)
            for p in result.pairs
            if p.achieved_fairness(0.0) < 0.1
        ]
        assert deviations  # the unfair runs exist
        assert max(deviations) < 0.2

    def test_enforcement_preserves_already_fair_runs(self, result):
        changes = [
            p.achieved_fairness(0.25) - p.achieved_fairness(0.0)
            for p in result.pairs
            if p.achieved_fairness(0.0) > 0.8
        ]
        # Paper: "on runs which are also fair without fairness
        # enforcement, the mechanism has small effect".
        assert all(abs(change) < 0.2 for change in changes)


class TestTimeSharing:
    @pytest.fixture(scope="class")
    def result(self):
        return timesharing.run(
            config=dataclasses.replace(
                EvalConfig(),
                min_instructions=1_000_000,
                warmup_instructions=500_000,
            )
        )

    def test_quota_400_gives_fairness_0_6(self, result):
        point = next(p for p in result.points if p.cycle_quota == 400.0)
        # Paper: speedups 0.5 and 0.8 -> fairness 0.5/0.8 = 0.6.
        assert point.fairness == pytest.approx(0.6, abs=0.08)
        assert point.time_share[0] == pytest.approx(0.5, abs=0.05)

    def test_mechanism_wins(self, result):
        # Paper: "the speedup of both threads can be adjusted to 0.63 and
        # the achieved fairness ... will be 1.0".
        assert result.enforced_fairness > 0.9
        best_ts = max(result.points, key=lambda p: p.fairness)
        assert (
            result.enforced_fairness > best_ts.fairness
            or result.enforced_ipc > best_ts.total_ipc
        )


class TestAblations:
    @pytest.fixture(scope="class")
    def result(self):
        return ablations.run(EvalConfig())

    def test_paper_delta_hits_target(self, result):
        point = next(p for p in result.series("delta") if p.value == "250,000")
        assert point.achieved_fairness == pytest.approx(0.5, abs=0.1)

    def test_oversized_delta_tracks_phases_poorly(self, result):
        series = {p.value: p for p in result.series("delta")}
        # Section 3.1: Delta "not too large in order to allow
        # performance phases to be accurately tracked".
        paper = abs(series["250,000"].achieved_fairness - 0.5)
        oversized = abs(series["1,000,000"].achieved_fairness - 0.5)
        assert oversized > paper

    def test_wrong_miss_latency_skews_fairness(self, result):
        series = {p.value: p for p in result.series("assumed_miss_lat")}
        correct = abs(series["300"].achieved_fairness - 0.5)
        wrong = abs(series["600"].achieved_fairness - 0.5)
        assert wrong > correct


class TestModelValidation:
    def test_engine_matches_the_closed_form_model(self):
        # Section 2's model and the segment engine agree almost exactly
        # where the model applies.
        config = dataclasses.replace(EvalConfig(), st_min_instructions=500_000)
        assert validation.run(config=config).worst_error < 0.02
