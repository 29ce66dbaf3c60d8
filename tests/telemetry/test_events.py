"""Tests for event builders, schema validation, and emission points."""

import hashlib
import json
import math
import pathlib
import re
from collections import Counter

import pytest

from repro.core.controller import FairnessController, FairnessParams
from repro.cpu.soe_core import run_cpu_single_thread, run_cpu_soe
from repro.errors import ConfigurationError
from repro.telemetry import RingBufferSink, tracing
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
from repro.workloads.tracegen import CpuWorkloadSpec, make_trace


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


#: Trace consumers program against this document's event table.
TELEMETRY_DOC = pathlib.Path(__file__).resolve().parents[2] / "docs" / "TELEMETRY.md"
EVENT_TABLE_HEADER = "| category | event | emitted by | payload |"


def _event_table(doc):
    """The doc's event table: event name -> the cells of each row naming it."""
    lines = doc.splitlines()
    table = {}
    for line in lines[lines.index(EVENT_TABLE_HEADER) + 2:]:
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]]
        table.setdefault(cells[1].strip("`"), []).append(cells)
    return table


def event_table_drift(doc, schemas, version):
    """Where the doc's event table disagrees with ``schemas`` and
    ``version``; empty when each event has one row naming its category
    and every payload field, no row names an unknown event, and the
    doc states the version."""
    table = _event_table(doc)
    problems = []
    for event, (category, fields) in schemas.items():
        rows = table.get(event, [])
        if len(rows) != 1:
            problems.append(f"{event!r} has {len(rows)} rows")
            continue
        category_cell, _, _, payload = rows[0]
        if category_cell != f"`{category}`":
            problems.append(f"the {event!r} row's category is {category_cell}")
        unnamed = [name for name in fields if f"`{name}`" not in payload]
        if unnamed:
            problems.append(f"the {event!r} row does not name {unnamed}")
    problems.extend(
        f"a row names {event!r}, which has no schema"
        for event in table
        if event not in schemas
    )
    if f'"v": {version}' not in doc:
        problems.append(f'the doc does not state "v": {version}')
    return problems


def test_docs_event_table_matches_event_schemas():
    """docs/TELEMETRY.md's event table has exactly one row per
    ``EVENT_SCHEMAS`` entry, each row names the event's category and
    every payload field, and the document states ``SCHEMA_VERSION``."""
    doc = TELEMETRY_DOC.read_text()
    assert event_table_drift(doc, EVENT_SCHEMAS, SCHEMA_VERSION) == []


class TestEventTableDrift:
    """:func:`event_table_drift` catches each way the doc can drift."""

    QUEUE_ROW = "| `runner` | `queue` | simulation service,"

    def _drift(self, doc=None, schemas=None, version=SCHEMA_VERSION):
        return event_table_drift(
            TELEMETRY_DOC.read_text() if doc is None else doc,
            EVENT_SCHEMAS if schemas is None else schemas,
            version,
        )

    def _doc(self, old, new):
        doc = TELEMETRY_DOC.read_text()
        assert doc.count(old) == 1
        return doc.replace(old, new)

    def test_doc_row_missing_a_field_is_flagged(self):
        doc = self._doc(", `depth` (queue depth after the action)", "")
        assert self._drift(doc) == ["the 'queue' row does not name ['depth']"]

    def test_category_mismatch_is_flagged(self):
        doc = self._doc(self.QUEUE_ROW, self.QUEUE_ROW.replace("runner", "switch"))
        assert self._drift(doc) == ["the 'queue' row's category is `switch`"]

    def test_schema_entry_without_a_row_is_flagged(self):
        schemas = {**EVENT_SCHEMAS, "ghost": ("runner", ("t",))}
        assert self._drift(schemas=schemas) == ["'ghost' has 0 rows"]

    def test_duplicate_row_is_flagged(self):
        lines = TELEMETRY_DOC.read_text().splitlines()
        (row,) = [line for line in lines if line.startswith(self.QUEUE_ROW)]
        doc = self._doc(row, row + "\n" + row)
        assert self._drift(doc) == ["'queue' has 2 rows"]

    def test_row_without_a_schema_entry_is_flagged(self):
        schemas = {k: v for k, v in EVENT_SCHEMAS.items() if k != "queue"}
        assert self._drift(schemas=schemas) == [
            "a row names 'queue', which has no schema"
        ]

    def test_stale_doc_version_is_flagged(self):
        assert self._drift(version=SCHEMA_VERSION + 1) == [
            f'the doc does not state "v": {SCHEMA_VERSION + 1}'
        ]


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


#: Small-footprint detailed-core workloads (the specs of
#: tests/cpu/test_soe_core.py), so traced runs finish in well under a second.
_CPU_COMPUTE = CpuWorkloadSpec(
    name="t-compute", ilp=8, ipm=20_000.0, load_fraction=0.2,
    store_fraction=0.05, branch_fraction=0.10, branch_noise=0.02,
    hot_bytes=4 * 1024, code_bytes=2 * 1024,
)
_CPU_MEMORY = CpuWorkloadSpec(
    name="t-memory", ilp=6, ipm=400.0, load_fraction=0.3,
    store_fraction=0.05, branch_fraction=0.08, branch_noise=0.02,
    hot_bytes=4 * 1024, code_bytes=2 * 1024,
)


def _cpu_programs():
    return [
        make_trace(_CPU_COMPUTE, seed=1, thread_index=0),
        make_trace(_CPU_MEMORY, seed=2, thread_index=1),
    ]


def _traced_events(run):
    sink = RingBufferSink()
    with tracing(sink):
        run()
    return sink.events


def _digest(events):
    blob = json.dumps(events, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


class TestCpuSwitchEmission:
    """The detailed core's exact traced event stream, pinned.

    The pipeline emits a ``switch`` event at each of its two switch-out
    sites, before the policy's ``on_switch_out``; the digests cover every
    event and field, so any change to when or what the core emits shows
    here. A single-thread run has nothing to switch to and emits none.
    """

    def test_fairness_controller_run(self):
        def run():
            controller = FairnessController(
                2, FairnessParams(fairness_target=0.5, sample_period=4_000.0)
            )
            run_cpu_soe(
                _cpu_programs(), controller,
                min_instructions=3_000, warmup_instructions=1_000,
            )

        events = _traced_events(run)
        assert Counter(e["event"] for e in events) == {
            "switch": 224, "sample": 8,
        }
        assert events[0] == {
            "event": "switch", "cat": "switch", "v": SCHEMA_VERSION,
            "t": 361.0, "thread": 0, "cause": "miss", "substrate": "cpu",
        }
        for event in events:
            validate_event(event)
        assert _digest(events) == (
            "135b80373dafdff22066c0db6efd944a4ce2842fffefe5f7492350b46c37d407"
        )

    def test_run_without_policy(self):
        events = _traced_events(
            lambda: run_cpu_soe(
                _cpu_programs(), min_instructions=3_000, warmup_instructions=1_000
            )
        )
        assert len(events) == 95
        assert all(e["event"] == "switch" for e in events)
        assert _digest(events) == (
            "36372fb1c00273a2f9132b3f944697ca4d37a3c72ba7af1fada2a241ccb55832"
        )

    def test_single_thread_run_emits_nothing(self):
        events = _traced_events(
            lambda: run_cpu_single_thread(
                make_trace(_CPU_MEMORY, seed=2, thread_index=1),
                min_instructions=3_000, warmup_instructions=1_000,
            )
        )
        assert events == []
