"""Tests for trace summarization and the trace-summary CLI."""

import json

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.telemetry.events import (
    cache_event,
    controller_sample,
    segment_end,
    stall,
    task_event,
    thread_switch,
)
from repro.telemetry.summary import (
    render_summary,
    render_trace_summary,
    summarize_trace,
)


def _write_trace(path, events):
    path.write_text("".join(json.dumps(e) + "\n" for e in events))


def _synthetic_events():
    """A small but complete trace touching every event type."""
    events = []
    for i in range(6):
        events.append(thread_switch(float(i * 100), i % 2, "miss", "engine"))
    events.append(thread_switch(700.0, 0, "quota", "engine"))
    events.append(thread_switch(800.0, 1, "cycle_quota", "cpu"))
    events.append(segment_end(850.0, 0, 300.0))
    events.append(stall(900.0, 50.0, "engine"))
    for step in (1, 2, 3):
        time = step * 1000.0
        events.append(controller_sample(
            time=time,
            instructions=[100.0 * step, 300.0 - 50.0 * step],
            cycles=[500.0, 500.0],
            misses=[step, 0],
            ipc_st=[0.5, 1.0 + 0.1 * step],
            quotas=[400.0, 600.0],
            deficits=[0.0, -5.0],
        ))
    events.append(task_event("start", "soe_pair", "gcc:eon@F0.5", worker=11))
    events.append(task_event("stop", "soe_pair", "gcc:eon@F0.5", worker=11,
                             wall_s=0.5))
    events.append(task_event("stop", "single_thread", "gcc@s1", worker=12,
                             wall_s=0.25))
    events.append(cache_event("hit", "gcc:eon"))
    events.append(cache_event("miss", "lucas:applu"))
    return events


class TestSummarizeTrace:
    def test_aggregates_synthetic_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        events = _synthetic_events()
        _write_trace(path, events)
        summary = summarize_trace(path)
        assert summary.events == len(events)
        assert summary.switch_causes == {
            "miss": 6, "quota": 1, "cycle_quota": 1
        }
        assert summary.segments == 1
        assert summary.stalls == 1
        assert summary.stall_cycles == 50.0
        assert summary.sample_times == [1000.0, 2000.0, 3000.0]
        assert summary.num_threads == 2
        assert summary.tasks == {
            "soe_pair": (1, 0.5), "single_thread": (1, 0.25)
        }
        assert summary.workers == {11, 12}
        assert summary.cache_hits == 1
        assert summary.cache_misses == 1

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            summarize_trace(tmp_path / "nope.jsonl")

    def test_invalid_line_reported_with_number(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"event": "bogus"}\n')
        with pytest.raises(ConfigurationError, match=":1:"):
            summarize_trace(path)


class TestRenderSummary:
    def test_renders_all_sections(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        _write_trace(path, _synthetic_events())
        text = render_trace_summary(path)
        assert "Trace summary" in text
        assert "Thread switches by cause" in text
        assert "miss" in text and "quota" in text
        assert "3 Delta boundaries" in text
        assert "IPC_ST" in text
        assert "fairness convergence" in text
        assert "soe_pair" in text
        assert "workers: 2" in text
        assert "1 hits / 1 misses" in text

    def test_handles_trace_without_samples(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        _write_trace(path, [thread_switch(0.0, 0, "miss", "engine")])
        text = render_trace_summary(path)
        assert "no convergence timeline" in text

    def test_handles_empty_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("")
        text = render_summary(summarize_trace(path))
        assert "no switch events" in text


class TestTraceSummaryCli:
    def test_renders_to_stdout(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        _write_trace(path, _synthetic_events())
        assert main(["trace-summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Trace summary" in out
        assert "Thread switches by cause" in out

    def test_output_flag_writes_file(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        _write_trace(path, _synthetic_events())
        target = tmp_path / "report" / "summary.txt"
        assert main(["trace-summary", str(path),
                     "--output", str(target)]) == 0
        assert "Trace summary" in target.read_text()

    def test_requires_a_path(self, capsys):
        assert main(["trace-summary"]) == 2
        assert "trace-summary" in capsys.readouterr().err

    def test_trace_events_without_trace_rejected(self, capsys):
        assert main(["fig3", "--trace-events", "controller"]) == 2
        assert "--trace-events" in capsys.readouterr().err


class TestManifestMetrics:
    def _manifest(self):
        return {
            "schema_version": 1,
            "config_hash": "abcd" * 4,
            "seed": 0,
            "wall_seconds": 2.0,
            "workers": 4,
            "events": 1000,
            "simulated_cycles": 500_000.0,
            "tasks": 8,
            "events_per_sec": 500.0,
            "simulated_cycles_per_sec": 250_000.0,
            "peak_rss_bytes": 64 << 20,
        }

    def test_summary_includes_manifest_counters(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        _write_trace(path, _synthetic_events())
        (tmp_path / "trace.jsonl.manifest.json").write_text(
            json.dumps(self._manifest())
        )
        assert main(["trace-summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Run profile" in out
        assert "events/sec: 500" in out
        assert "simulated cycles/sec: 250,000" in out
        assert "peak RSS: 64.0 MiB" in out

    def test_summary_without_manifest_has_no_profile_section(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        _write_trace(path, _synthetic_events())
        assert "Run profile" not in render_trace_summary(path)

    def test_corrupt_manifest_is_an_error(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        _write_trace(path, _synthetic_events())
        (tmp_path / "trace.jsonl.manifest.json").write_text("{not json")
        with pytest.raises(ConfigurationError, match="manifest"):
            render_trace_summary(path)
