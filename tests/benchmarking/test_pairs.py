"""The summary maths of ``benchmarks/pairs.py``, fed canned perfbench
result lines (no benchmark is run)."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

PAIRS = Path(__file__).resolve().parents[2] / "benchmarks" / "pairs.py"


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("_pairs", PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _line(wall_s, rss=40.0, correct=True):
    return json.dumps({
        "correct": correct,
        "attempted": 10,
        "failed": 0,
        "metrics": {
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MiB"},
        },
    })


def _output(wall_s, **kwargs):
    return "# samples: 12\n# calibration: 40.1 Mops/s\n" + _line(wall_s, **kwargs)


METRICS = [
    {"name": "wall_s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
    {"name": "sim_cycles_per_s", "better": "higher", "bound": 0.25},
]


class TestSchedule:
    def test_alternates_the_first_side(self, pairs):
        assert pairs.schedule(4, 11) == [
            (11, ("parent", "change")),
            (12, ("change", "parent")),
            (13, ("parent", "change")),
            (14, ("change", "parent")),
        ]


class TestResultFromOutput:
    def test_reads_the_last_line(self, pairs):
        result = pairs.result_from_output(_output(1.25))
        assert result["metrics"]["wall_s"]["value"] == 1.25

    def test_rejects_empty_output(self, pairs):
        with pytest.raises(ValueError):
            pairs.result_from_output("\n")

    def test_rejects_a_non_result_line(self, pairs):
        with pytest.raises(ValueError):
            pairs.result_from_output('# done\n{"error": 1}')


class TestQuartiles:
    def test_ten_values(self, pairs):
        values = [float(v) for v in range(1, 11)]
        assert pairs.quartiles(values) == pytest.approx((3.25, 5.5, 7.75))

    def test_order_does_not_matter(self, pairs):
        assert pairs.quartiles([3.0, 1.0, 2.0]) == pairs.quartiles([1.0, 2.0, 3.0])

    def test_single_value(self, pairs):
        assert pairs.quartiles([2.0]) == (2.0, 2.0, 2.0)


class TestSummarize:
    PARENT = [1.19, 1.17, 1.22, 1.18, 1.20, 1.16, 1.21, 1.19, 1.18, 1.23]

    def test_clear_gain_holds(self, pairs):
        change = [v - 0.19 for v in self.PARENT]
        s = pairs.summarize(self.PARENT, change, "lower")
        assert s["wins"] == 10
        assert s["gap"] == pytest.approx(0.19)
        assert s["gain"]

    def test_nine_wins_suffice(self, pairs):
        change = [v - 0.19 for v in self.PARENT]
        change[3] = self.PARENT[3] + 0.01
        s = pairs.summarize(self.PARENT, change, "lower")
        assert s["wins"] == 9
        assert s["gain"]

    def test_eight_wins_do_not(self, pairs):
        change = [v - 0.19 for v in self.PARENT]
        change[3] = self.PARENT[3] + 0.01
        change[4] = self.PARENT[4] + 0.01
        s = pairs.summarize(self.PARENT, change, "lower")
        assert s["wins"] == 8
        assert not s["gain"]

    def test_ties_count_for_neither_side(self, pairs):
        s = pairs.summarize(self.PARENT, list(self.PARENT), "lower")
        assert s["wins"] == 0
        assert not s["gain"]

    def test_gap_within_the_parent_iqr_is_no_gain(self, pairs):
        # Every pair won, by less than the parent's spread.
        change = [v - 0.01 for v in self.PARENT]
        s = pairs.summarize(self.PARENT, change, "lower")
        assert s["wins"] == 10
        assert s["gap"] < s["parent_iqr"]
        assert not s["gain"]

    def test_higher_is_better(self, pairs):
        parent = [100.0, 101.0, 99.0, 100.5]
        change = [120.0, 121.0, 119.0, 120.5]
        assert pairs.summarize(parent, change, "higher")["gain"]
        assert not pairs.summarize(change, parent, "higher")["gain"]
        assert pairs.summarize(change, parent, "higher")["wins"] == 0

    def test_rejects_unpaired_runs(self, pairs):
        with pytest.raises(ValueError):
            pairs.summarize([1.0, 2.0], [1.0], "lower")


class TestSummaryTable:
    def test_rows_for_reported_metrics_only(self, pairs):
        results = {
            "parent": [pairs.result_from_output(_output(w)) for w in (1.2, 1.1)],
            "change": [pairs.result_from_output(_output(w)) for w in (1.0, 0.9)],
        }
        rows = pairs.summary_table(results, METRICS)
        body = rows[2:]
        assert [row.split("|")[1].strip() for row in body] == [
            "wall_s", "peak_rss_mb"
        ]
        assert "2/2" in body[0] and body[0].rstrip().endswith("| yes |")
        # Equal memory on both sides: no wins, no gain.
        assert "0/2" in body[1] and body[1].rstrip().endswith("| no |")
