"""End-to-end telemetry tests: the invariant is bit-identity.

Tracing is observation only -- with any sink installed, at any job
count, with or without the result cache, simulation results must be
exactly what an untraced serial run produces.
"""

import json

import pytest

from repro.cli import main
from repro.experiments.common import EvalConfig
from repro.experiments.runner import ExecutionSettings, execution, run_grid
from repro.telemetry import JsonlSink, RingBufferSink, tracing, validate_trace_file
from repro.workloads.pairs import BenchmarkPair

PAIRS = (
    BenchmarkPair("gcc", "eon"),
    BenchmarkPair("lucas", "applu"),
)


@pytest.fixture(scope="module")
def config():
    return EvalConfig.quick()


@pytest.fixture(scope="module")
def untraced_grid(config):
    return run_grid(config, PAIRS).results


class TestTracedGridBitIdentity:
    def test_traced_serial_matches_untraced(self, config, untraced_grid,
                                            tmp_path):
        sink = JsonlSink(tmp_path / "serial.jsonl")
        with tracing(sink):
            traced = run_grid(config, PAIRS).results
        sink.close()
        assert traced == untraced_grid
        assert validate_trace_file(tmp_path / "serial.jsonl") > 0

    def test_traced_parallel_matches_untraced(self, config, untraced_grid,
                                              tmp_path):
        trace = tmp_path / "parallel.jsonl"
        sink = JsonlSink(trace)
        with tracing(sink), execution(ExecutionSettings(jobs=4)):
            traced = run_grid(config, PAIRS).results
        sink.close()
        assert traced == untraced_grid
        events = [json.loads(line) for line in
                  trace.read_text().splitlines()]
        assert validate_trace_file(trace) == len(events)
        categories = {e["cat"] for e in events}
        assert categories == {"controller", "switch", "runner"}
        # Worker tasks were traced from the worker processes themselves.
        task_stops = [e for e in events
                      if e["event"] == "task" and e["phase"] == "stop"]
        soe_stops = [e for e in task_stops if e["kind"] == "soe_pair"]
        st_stops = [e for e in task_stops if e["kind"] == "single_thread"]
        assert len(soe_stops) == len(PAIRS) * len(config.fairness_levels)
        assert len(st_stops) == 2 * len(PAIRS)  # one per thread slot
        # Schema v2: SOE tasks name their enforcing policy ("none" at
        # the F=0 baseline); single-thread tasks carry None.
        assert {e["policy"] for e in soe_stops} == {"none", config.policy}
        assert {e["policy"] for e in st_stops} == {None}

    def test_traced_cached_rerun_matches(self, config, untraced_grid,
                                         tmp_path):
        cache_dir = tmp_path / "cache"
        first = run_grid(config, PAIRS, ExecutionSettings(cache_dir=cache_dir))
        sink = RingBufferSink(capacity=100_000)
        with tracing(sink):
            second = run_grid(config, PAIRS,
                              ExecutionSettings(cache_dir=cache_dir))
        assert first.results == second.results == untraced_grid
        hits = [e for e in sink.events if e["event"] == "cache"]
        assert len(hits) == len(PAIRS)
        assert all(e["outcome"] == "hit" for e in hits)


class TestCliTraceFlag:
    """--trace must not change the rendered or JSON output at all."""

    def test_traced_json_is_byte_identical(self, tmp_path, capsys):
        plain = tmp_path / "plain.json"
        traced = tmp_path / "traced.json"
        trace = tmp_path / "trace.jsonl"
        assert main(["table2", "--scale", "quick",
                     "--json", str(plain)]) == 0
        assert main(["table2", "--scale", "quick", "--json", str(traced),
                     "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert plain.read_bytes() == traced.read_bytes()
        assert validate_trace_file(trace) > 0

    def test_manifest_written_next_to_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["table2", "--scale", "quick",
                     "--trace", str(trace)]) == 0
        err = capsys.readouterr().err
        assert "[trace]" in err
        manifest = json.loads((tmp_path / "trace.jsonl.manifest.json")
                              .read_text())
        assert manifest["schema_version"] == 1
        assert manifest["seed"] == 0
        assert manifest["workers"] == 1
        assert manifest["events"] > 0
        assert manifest["events_per_sec"] > 0
        assert manifest["simulated_cycles"] > 0
        assert manifest["peak_rss_bytes"] > 0
        assert len(manifest["config_hash"]) == 16

    def test_trace_events_filters_categories(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["table2", "--scale", "quick", "--trace", str(trace),
                     "--trace-events", "controller"]) == 0
        capsys.readouterr()
        events = [json.loads(line) for line in
                  trace.read_text().splitlines()]
        assert events
        assert {e["cat"] for e in events} == {"controller"}
