"""Tests for event builders, schema validation, and emission points."""

import json
import math

import pytest

from repro.core.controller import FairnessController, FairnessParams
from repro.core.policy import SwitchPolicy
from repro.cpu.soe_core import TracingSwitchPolicy
from repro.errors import ConfigurationError
from repro.telemetry import RingBufferSink
from repro.telemetry.events import (
    CATEGORIES,
    EVENT_SCHEMAS,
    SCHEMA_VERSION,
    breaker_event,
    cache_event,
    checkpoint_event,
    controller_sample,
    job_event,
    parse_categories,
    queue_event,
    segment_end,
    sink_degraded_event,
    stall,
    task_event,
    task_failed,
    task_retry,
    thread_switch,
    validate_event,
    validate_trace_file,
)


def _sample(**overrides):
    event = controller_sample(
        time=250_000.0,
        instructions=[1000.0, 2000.0],
        cycles=[125_000.0, 125_000.0],
        misses=[3, 1],
        ipc_st=[0.5, 1.2],
        quotas=[400.0, math.inf],
        deficits=[0.0, -10.0],
    )
    event.update(overrides)
    return event


class TestBuilders:
    def test_every_builder_validates(self):
        events = [
            _sample(),
            thread_switch(1.0, 0, "miss", "engine"),
            thread_switch(2.0, 1, "cycle_quota", "cpu"),
            segment_end(3.0, 0, 300.0),
            segment_end(4.0, 1, None),
            stall(5.0, 120.0, "engine"),
            task_event("start", "soe_pair", "gcc:eon@F0.5", worker=123),
            task_event("stop", "soe_pair", "gcc:eon@F0.5", worker=123,
                       wall_s=0.25),
            cache_event("hit", "gcc:eon"),
            cache_event("miss", "lucas:applu"),
            cache_event("corrupt", "gcc:eon"),
            cache_event("sweep", "tmp-123.tmp"),
            task_retry("soe_pair", "gcc:eon@F0.5", 2, "timeout"),
            task_retry("soe_pair", "gcc:eon@F0.5", 2, "crash",
                       backoff_s=0.375),
            task_failed("soe_pair", "gcc:eon@F0.5", 3, "crash"),
            checkpoint_event("write", 1, "grid.ckpt"),
            checkpoint_event("resume", 7, "grid.ckpt"),
            job_event("submitted", "tenant-a", "ab12cd34"),
            job_event("rejected", "tenant-a", "ab12cd34",
                      detail="queue full"),
            queue_event("enqueue", "tenant-a", 3),
            breaker_event("open", 5),
            sink_degraded_event("trace.jsonl", "OSError: ENOSPC"),
        ]
        for event in events:
            assert validate_event(event) is event

    def test_builders_cover_every_schema_entry(self):
        built = {e["event"] for e in (
            _sample(),
            thread_switch(0.0, 0, "miss", "engine"),
            segment_end(0.0, 0, None),
            stall(0.0, 1.0, "cpu"),
            task_event("start", "k", "l", 1),
            cache_event("hit", "l"),
            task_retry("k", "l", 2, "crash"),
            task_failed("k", "l", 3, "crash"),
            checkpoint_event("write", 1, "p"),
            job_event("submitted", "t", "j"),
            queue_event("enqueue", "t", 1),
            breaker_event("closed", 0),
            sink_degraded_event("p", "e"),
        )}
        assert built == set(EVENT_SCHEMAS)

    def test_task_event_policy_field(self):
        # Schema v2: task events carry the enforcing policy name (a
        # string for soe_pair tasks, None for single-thread tasks).
        named = task_event("start", "soe_pair", "gcc:eon@F1", worker=1,
                           policy="drr-arbiter")
        assert validate_event(named)["policy"] == "drr-arbiter"
        bare = task_event("start", "single_thread", "gcc", worker=1)
        assert validate_event(bare)["policy"] is None
        with pytest.raises(ConfigurationError, match="policy"):
            bad = task_event("start", "soe_pair", "l", worker=1)
            bad["policy"] = 42
            validate_event(bad)

    def test_schema_version_is_four(self):
        assert SCHEMA_VERSION == 4
        assert task_event("start", "k", "l", 1)["v"] == 4

    def test_nonfinite_floats_encode_as_strings(self):
        event = _sample()
        assert event["quotas"] == [400.0, "inf"]
        # ... and the result is strict JSON either way.
        json.dumps(event, allow_nan=False)
        validate_event(event)


class TestValidation:
    def test_rejects_non_dict(self):
        with pytest.raises(ConfigurationError, match="must be an object"):
            validate_event([1, 2, 3])

    def test_rejects_unknown_event(self):
        with pytest.raises(ConfigurationError, match="unknown trace event"):
            validate_event({"event": "nope", "cat": "switch",
                            "v": SCHEMA_VERSION})

    def test_rejects_wrong_category(self):
        with pytest.raises(ConfigurationError, match="must have cat"):
            validate_event(_sample(cat="switch"))

    def test_rejects_wrong_schema_version(self):
        with pytest.raises(ConfigurationError, match="schema version"):
            validate_event(_sample(v=SCHEMA_VERSION + 1))

    def test_rejects_missing_field(self):
        event = _sample()
        del event["quotas"]
        with pytest.raises(ConfigurationError, match="missing fields"):
            validate_event(event)

    def test_rejects_extra_field(self):
        with pytest.raises(ConfigurationError, match="unknown fields"):
            validate_event(_sample(surprise=1))

    def test_rejects_bad_switch_cause(self):
        with pytest.raises(ConfigurationError, match="cause"):
            validate_event(thread_switch(1.0, 0, "sneeze", "engine"))

    def test_rejects_bool_masquerading_as_int(self):
        with pytest.raises(ConfigurationError, match="thread"):
            validate_event(thread_switch(1.0, True, "miss", "engine"))


class TestParseCategories:
    def test_none_and_empty_mean_everything(self):
        assert parse_categories(None) is None
        assert parse_categories("") is None
        assert parse_categories("  ") is None

    def test_parses_comma_separated_subset(self):
        assert parse_categories("controller,switch") == \
            frozenset({"controller", "switch"})
        assert parse_categories(" runner ") == frozenset({"runner"})

    def test_rejects_unknown_names(self):
        with pytest.raises(ConfigurationError, match="unknown trace categories"):
            parse_categories("controller,bogus")

    def test_all_categories_are_parseable(self):
        assert parse_categories(",".join(sorted(CATEGORIES))) == CATEGORIES


class TestValidateTraceFile:
    def test_counts_valid_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        events = [thread_switch(float(i), 0, "miss", "engine")
                  for i in range(4)]
        path.write_text(
            "\n".join(json.dumps(e) for e in events) + "\n\n"
        )
        assert validate_trace_file(path) == 4

    def test_reports_line_number_on_garbage(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            json.dumps(thread_switch(0.0, 0, "miss", "engine"))
            + "\nnot json\n"
        )
        with pytest.raises(ConfigurationError, match=":2:"):
            validate_trace_file(path)

    def test_reports_line_number_on_schema_violation(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"event": "nope"}\n')
        with pytest.raises(ConfigurationError, match=":1:"):
            validate_trace_file(path)


class TestControllerEmission:
    """The fairness controller emits one sample per Delta boundary."""

    def _controller(self, sink):
        params = FairnessParams(fairness_target=1.0, sample_period=1000.0)
        return FairnessController(2, params, sink=sink)

    def test_emits_index_aligned_sample_per_boundary(self):
        sink = RingBufferSink()
        controller = self._controller(sink)
        controller.on_retired(0, 500.0, 600.0)
        controller.on_retired(1, 100.0, 400.0)
        controller.on_miss(1, 900.0)
        controller.on_boundary(1000.0)
        samples = [e for e in sink.events if e["event"] == "sample"]
        assert len(samples) == 1
        sample = validate_event(samples[0])
        assert sample["t"] == 1000.0
        assert sample["instructions"] == [500.0, 100.0]
        assert sample["misses"] == [0, 1]
        assert len(sample["ipc_st"]) == 2
        assert len(sample["quotas"]) == 2
        assert len(sample["deficits"]) == 2

    def test_sample_matches_recorded_history(self):
        sink = RingBufferSink()
        controller = self._controller(sink)
        for boundary in (1000.0, 2000.0, 3000.0):
            controller.on_retired(0, 300.0, 500.0)
            controller.on_retired(1, 200.0, 500.0)
            controller.on_boundary(boundary)
        samples = [e for e in sink.events if e["event"] == "sample"]
        assert len(samples) == len(controller.history) == 3
        for event, point in zip(samples, controller.history):
            assert event["t"] == point.time
            assert event["ipc_st"] == [e.ipc_st for e in point.estimates]

    def test_category_filter_suppresses_samples(self):
        sink = RingBufferSink(categories=frozenset({"switch"}))
        controller = self._controller(sink)
        controller.on_retired(0, 300.0, 500.0)
        controller.on_boundary(1000.0)
        assert sink.events == []

    def test_no_sink_means_no_tracing(self):
        controller = self._controller(None)  # ambient default is Null
        controller.on_retired(0, 300.0, 500.0)
        controller.on_boundary(1000.0)  # must not raise
        assert len(controller.history) == 1


class _RecordingPolicy(SwitchPolicy):
    """Inner policy that records every callback it receives."""

    def __init__(self):
        self.calls = []

    def on_run_start(self, thread_id, now):
        self.calls.append(("run_start", thread_id, now))

    def instruction_budget(self, thread_id):
        self.calls.append(("instruction_budget", thread_id))
        return 123.0

    def cycle_budget(self, thread_id):
        self.calls.append(("cycle_budget", thread_id))
        return 456.0

    def on_retired(self, thread_id, instructions, cycles):
        self.calls.append(("retired", thread_id, instructions, cycles))

    def on_miss(self, thread_id, now, latency=None):
        self.calls.append(("miss", thread_id, now, latency))

    def on_switch_out(self, thread_id, reason, now):
        self.calls.append(("switch_out", thread_id, reason, now))

    def next_boundary(self, now):
        self.calls.append(("next_boundary", now))
        return now + 1000.0

    def on_boundary(self, now):
        self.calls.append(("boundary", now))


class TestTracingSwitchPolicy:
    def test_delegates_every_callback(self):
        inner = _RecordingPolicy()
        sink = RingBufferSink()
        traced = TracingSwitchPolicy(inner, sink)
        traced.on_run_start(0, 0.0)
        assert traced.instruction_budget(0) == 123.0
        assert traced.cycle_budget(0) == 456.0
        traced.on_retired(0, 10.0, 20.0)
        traced.on_miss(0, 30.0, latency=300.0)
        traced.on_switch_out(0, "miss", 40.0)
        assert traced.next_boundary(50.0) == 1050.0
        traced.on_boundary(60.0)
        assert [c[0] for c in inner.calls] == [
            "run_start", "instruction_budget", "cycle_budget", "retired",
            "miss", "switch_out", "next_boundary", "boundary",
        ]

    def test_emits_cpu_switch_events(self):
        sink = RingBufferSink()
        traced = TracingSwitchPolicy(_RecordingPolicy(), sink)
        traced.on_switch_out(1, "quota", 77.0)
        (event,) = sink.events
        validate_event(event)
        assert event["event"] == "switch"
        assert event["thread"] == 1
        assert event["cause"] == "quota"
        assert event["substrate"] == "cpu"
