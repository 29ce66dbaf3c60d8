"""Tests for the benchmark's measurement helpers and metric tables."""

import json
import random
from pathlib import Path

import pytest

from perfbench import harness, measure, run
from perfbench.measure import Arrival

ROOT = Path(__file__).resolve().parents[2]


class TestPercentileRule:
    def test_samples_beyond_counts_above_the_nearest_rank(self):
        assert measure.samples_beyond(200, 95) == 10
        assert measure.samples_beyond(199, 95) == 9
        assert measure.samples_beyond(20, 50) == 10
        assert measure.samples_beyond(0, 50) == 0

    def test_tail_reports_value_count_and_support(self):
        values = list(range(1, 201))
        found = measure.tail(values, 95)
        assert (found.value, found.count, found.beyond) == (190, 200, 10)
        assert found.supported
        short = measure.tail(values[:100], 95)
        assert short.beyond == 5 and not short.supported
        assert "100 samples" in short.describe("ms")
        assert "fewer than ten" in short.describe("ms")

    def test_percentile_is_order_free_and_validates(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        assert measure.percentile(values, 50) == 3.0
        assert measure.percentile(values, 100) == 5.0
        with pytest.raises(ValueError):
            measure.percentile([], 50)
        with pytest.raises(ValueError):
            measure.percentile(values, 0)


class TestOpenLoop:
    def test_latency_runs_from_the_due_time(self):
        prompt = Arrival(due=0.0, sent=0.0, done=0.05)
        stalled = Arrival(due=0.1, sent=0.4, done=0.45)
        latencies = measure.open_loop_latencies([prompt, stalled], limit=1.0, end=2.0)
        assert latencies == pytest.approx([0.05, 0.35])

    def test_generator_lateness(self):
        assert Arrival(due=0.1, sent=0.4, done=0.45).lateness == pytest.approx(0.3)
        assert Arrival(due=0.1, sent=0.1, done=0.2).lateness == 0.0

    def test_unfinished_job_misses_the_limit(self):
        recent = Arrival(due=1.5, sent=1.5, done=None)
        old = Arrival(due=0.0, sent=0.0, done=None)
        latencies = measure.open_loop_latencies([recent, old], limit=1.0, end=2.0)
        assert latencies == pytest.approx([1.0, 2.0])

    def test_fixed_rate_schedule_is_seeded_and_evenly_spaced(self):
        first = measure.fixed_rate_schedule(random.Random(3), 4.0, 24)
        again = measure.fixed_rate_schedule(random.Random(3), 4.0, 24)
        assert first == again and len(first) == 24
        assert 0.0 <= first[0] < 0.25
        gaps = {round(b - a, 9) for a, b in zip(first, first[1:])}
        assert gaps == {0.25}


class TestMetricNames:
    @pytest.mark.parametrize(
        "name", ["job_p95_ms", "engine.batch.busy_s", "a-b", "7x", "x" * 64]
    )
    def test_valid(self, name):
        assert measure.valid_metric_name(name)

    @pytest.mark.parametrize(
        "name", ["", "_x", ".x", "a b", "a/b", "x" * 65, "p95%"]
    )
    def test_invalid(self, name):
        assert not measure.valid_metric_name(name)

    def test_benchmark_json_names_known_workloads_and_valid_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        assert len(names) == len(set(names))
        assert all(measure.valid_metric_name(name) for name in names)
        assert harness.metric_table("end_to_end")["setup_s"] == "s"


def test_per_layer_reports_every_listed_metric():
    names = list(harness.metric_table("per_layer"))
    passes = [
        harness.PassResult(wall_s=1.0, cpu_s=1.0, sim_cycles=1.0,
                           job_latencies_s=[0.1], attempted=1, failed=0,
                           correct=True, sim_err_pct=0.0, traced=traced,
                           trace={"spans": {}, "counters": {}, "samples": {}})
        for traced in (False, True)
    ]
    values = harness.per_layer(passes, names, [])
    assert set(names) <= set(values)


def test_digest_is_exact_on_floats():
    assert measure.digest({"x": 0.1 + 0.2}) != measure.digest({"x": 0.3})
    assert measure.digest({"a": 1, "b": 2}) == measure.digest({"b": 2, "a": 1})
