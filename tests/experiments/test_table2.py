"""Tests for the Table 2 experiment."""

import dataclasses
import math

import pytest

from repro.experiments import table2
from repro.experiments.common import EvalConfig


@pytest.fixture(scope="module")
def result():
    # Warmup must outlast the first Delta window (~600k instructions at
    # this pair's throughput) so the measured window sees active
    # enforcement only.
    return table2.run(
        config=dataclasses.replace(
            EvalConfig(), min_instructions=1_000_000, warmup_instructions=700_000
        )
    )


class TestTable2:
    def test_rows_cover_levels_and_threads(self, result):
        for rows in (result.analytical, result.simulated):
            keys = {(r.fairness_target, r.thread) for r in rows}
            assert keys == {(f, t) for f in (0.0, 0.5, 1.0) for t in (0, 1)}

    def test_analytical_matches_paper_slowdowns(self, result):
        by_key = {(r.fairness_target, r.thread): r for r in result.analytical}
        assert by_key[(0.0, 0)].slowdown_factor == pytest.approx(1.02, abs=0.01)
        assert by_key[(0.0, 1)].slowdown_factor == pytest.approx(9.2, abs=0.1)

    def test_analytical_f1_quota_is_1667(self, result):
        by_key = {(r.fairness_target, r.thread): r for r in result.analytical}
        assert by_key[(1.0, 0)].quota == pytest.approx(1_667, abs=1)

    def test_simulation_tracks_analysis(self, result):
        for sim, ana in zip(result.simulated, result.analytical):
            assert sim.fairness_target == ana.fairness_target
            assert sim.ipc_soe == pytest.approx(ana.ipc_soe, rel=0.03)

    def test_fairness_summary(self, result):
        assert result.fairness(result.analytical, 0.0) == pytest.approx(0.111, abs=0.003)
        assert result.fairness(result.analytical, 1.0) == pytest.approx(1.0, abs=1e-6)
        assert result.fairness(result.simulated, 1.0) == pytest.approx(1.0, abs=0.03)

    def test_unenforced_quota_is_infinite(self, result):
        f0_rows = [r for r in result.simulated if r.fairness_target == 0.0]
        assert all(math.isinf(r.quota) for r in f0_rows)

    def test_render_mentions_both_sources(self, result):
        text = table2.render(result)
        assert "analytical model" in text
        assert "segment engine" in text
        assert "IPSw" in text
