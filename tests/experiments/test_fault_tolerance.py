"""Fault-tolerant grid execution: supervisor, checkpoint, injection.

The load-bearing property -- a grid interrupted by crashes or poisoned
results and then resumed is bit-identical to an uninterrupted run --
is drawn by tests/integration/test_path_identity.py. This file checks
what surrounds it: the hang/timeout path, taxonomy, quarantine,
journal format and exit codes.
"""

import hashlib
import json
import os
import time
from dataclasses import replace

import pytest

from repro import faults, telemetry
from repro.errors import (
    ConfigurationError,
    GridExecutionError,
    InvariantViolation,
    TaskTimeout,
    WorkerCrash,
    classify_failure,
)
from repro.experiments.checkpoint import (
    CheckpointWriter,
    load_checkpoint,
    task_key,
)
from repro.experiments import ablations, runner, sensitivity
from repro.experiments.common import EvalConfig
from repro.experiments.runner import (
    ExecutionSettings,
    ResultCache,
    degraded_outcomes,
    reset_degraded,
    run_grid,
)
from repro.experiments.supervisor import (
    SupervisionPolicy,
    Supervisor,
    check_invariants,
)
from repro.workloads.pairs import BenchmarkPair

PAIRS = (BenchmarkPair("gcc", "gcc"), BenchmarkPair("gcc", "eon"))


@pytest.fixture(scope="module")
def config():
    """A sub-second grid: tiny windows, two fairness levels."""
    return replace(
        EvalConfig.quick(),
        fairness_levels=(0.0, 0.5),
        sample_period=20_000,
        min_instructions=60_000,
        warmup_instructions=20_000,
        st_min_instructions=60_000,
    )


@pytest.fixture(scope="module")
def clean_grid(config):
    return run_grid(config, PAIRS, ExecutionSettings(jobs=1)).results


@pytest.fixture(autouse=True)
def _clean_degraded():
    reset_degraded()
    yield
    reset_degraded()


# -- picklable task functions for supervisor-level tests --------------------


def _double(value):
    return value * 2


def _fail_on_three(value):
    if value == 3:
        raise ValueError("three is right out")
    return value


def _sleep_forever(value):
    time.sleep(3600.0)
    return value


def _return_nan(value):
    return float("nan")


class TestFailureTaxonomy:
    def test_reasons_are_pinned(self):
        assert TaskTimeout.reason == "timeout"
        assert WorkerCrash.reason == "crash"
        assert InvariantViolation.reason == "invariant"

    def test_classify_failure(self):
        assert classify_failure(TaskTimeout("t")) == "timeout"
        assert classify_failure(WorkerCrash("c")) == "crash"
        assert classify_failure(InvariantViolation("i")) == "invariant"
        assert classify_failure(ValueError("v")) == "error"


class TestCheckInvariants:
    def test_accepts_finite_structures(self, clean_grid):
        check_invariants(clean_grid[0])
        check_invariants({"a": [1.0, (2.0, "x")], "b": None})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(InvariantViolation):
            check_invariants({"deep": [(bad,)]})

    def test_names_the_offending_path(self):
        with pytest.raises(InvariantViolation, match=r"result\[0\]"):
            check_invariants([float("nan")])


class TestSupervisor:
    def test_results_keyed_by_caller_indices(self):
        run = Supervisor(_double, [(7, 1), (9, 2)], jobs=1).run()
        assert run.results == {7: 2, 9: 4}
        assert run.failures == [] and run.skipped == []
        assert not run.interrupted

    def test_inline_failure_keeps_original_error(self):
        run = Supervisor(_fail_on_three, [(0, 3)], jobs=1).run()
        assert len(run.failures) == 1
        failure = run.failures[0]
        assert failure.reason == "error"
        assert failure.message == "ValueError: three is right out"

    def test_isolated_matches_inline(self):
        items = list(enumerate(range(6)))
        inline = Supervisor(_double, items, jobs=1).run()
        isolated = Supervisor(_double, items, jobs=3).run()
        assert inline.results == isolated.results

    def test_timeout_is_classified_and_bounded(self):
        policy = SupervisionPolicy(task_timeout=0.5, retries=1)
        run = Supervisor(_sleep_forever, [(0, "x")], jobs=1, policy=policy).run()
        assert [f.reason for f in run.failures] == ["timeout"]
        assert run.failures[0].attempts == 2
        assert run.retries == 1

    def test_nan_result_is_invariant_violation(self):
        policy = SupervisionPolicy(task_timeout=10.0, retries=0)
        run = Supervisor(_return_nan, [(0, "x")], jobs=1, policy=policy).run()
        assert [f.reason for f in run.failures] == ["invariant"]

    def test_crash_fault_is_retried_to_success(self):
        with faults.fault_injection(faults.parse_fault_plan("crash@1")):
            run = Supervisor(
                _double,
                list(enumerate(range(4))),
                jobs=2,
                policy=SupervisionPolicy(retries=2),
            ).run()
        assert run.results == {i: i * 2 for i in range(4)}
        assert run.retries == 1 and run.failures == []

    def test_drain_skips_unlaunched_tasks(self):
        supervisor = Supervisor(_double, list(enumerate(range(8))), jobs=1)
        supervisor.request_drain()
        run = supervisor.run()
        assert run.results == {}
        assert run.skipped == list(range(8))

    def test_policy_validation(self):
        nan, inf = float("nan"), float("inf")
        for bad in (
            {"task_timeout": 0.0},
            {"task_timeout": nan},
            {"task_timeout": inf},
            {"retries": -1},
            {"retry_backoff": -1.0},
            {"retry_backoff": nan},
            {"retry_backoff": inf},
        ):
            with pytest.raises(ConfigurationError):
                SupervisionPolicy(**bad)


class TestFaultPlan:
    def test_parse_grammar(self):
        plan = faults.parse_fault_plan("crash@2, hang@5*3 ,nan@7")
        assert plan.specs == (
            faults.FaultSpec("crash", 2),
            faults.FaultSpec("hang", 5, 3),
            faults.FaultSpec("nan", 7),
        )
        assert plan.active
        assert faults.parse_fault_plan(None) is faults.NO_FAULTS
        assert faults.parse_fault_plan("  ") is faults.NO_FAULTS

    @pytest.mark.parametrize(
        "spec", ["crash", "crash@x", "frobnicate@1", "crash@-1", "crash@1*0"]
    )
    def test_parse_rejects_malformed(self, spec):
        with pytest.raises(ConfigurationError):
            faults.parse_fault_plan(spec)

    def test_fires_only_on_early_attempts(self):
        plan = faults.parse_fault_plan("nan@4*2")
        assert plan.mutate_result(4, 1, 1.0) != 1.0
        assert plan.mutate_result(4, 2, 1.0) != 1.0
        assert plan.mutate_result(4, 3, 1.0) == 1.0
        assert plan.mutate_result(5, 1, 1.0) == 1.0

    def test_ambient_context_restores(self):
        plan = faults.parse_fault_plan("crash@0")
        assert faults.current_plan() is faults.NO_FAULTS
        with faults.fault_injection(plan) as active:
            assert faults.current_plan() is active is plan
        assert faults.current_plan() is faults.NO_FAULTS

    def test_corrupt_file_writes_fixed_garbage(self, tmp_path):
        # Every plan writes the same bytes, so each corruption test sees
        # the same garbage: the head is replaced, the tail kept.
        garbage = hashlib.sha256(b"repro-fault-0").digest()
        original = bytes(range(256))
        for spec in ("corrupt@0", "corrupt@3,nan@1"):
            path = tmp_path / "entry.pkl"
            path.write_bytes(original)
            faults.parse_fault_plan(spec).corrupt_file(path)
            data = path.read_bytes()
            assert data == garbage + original[len(garbage):]

    @pytest.mark.parametrize(
        "module", [ablations, sensitivity], ids=["ablations", "sensitivity"]
    )
    def test_task_faults_index_grid_tasks_only(self, module):
        # crash/hang/nan indices count supervised grid tasks; these
        # sweeps run their points in a plain loop, so a plan aimed at
        # task 0 leaves them untouched.
        config = EvalConfig.quick()
        clean = module.run(config=config)
        with faults.fault_injection(faults.parse_fault_plan("nan@0*3")):
            faulted = module.run(config=config)
        assert faulted == clean


class TestCheckpointJournal:
    def test_round_trip(self, tmp_path):
        journal = tmp_path / "grid.ckpt"
        with CheckpointWriter(journal, "fp", "code") as writer:
            writer.record("st", "k1", 1.25)
            writer.record("soe", "k2", {"x": (1.0, 2.0)})
        state = load_checkpoint(journal)
        assert state.fingerprint == "fp"
        assert state.tasks == {"k1": 1.25, "k2": {"x": (1.0, 2.0)}}

    def test_floats_round_trip_exactly(self, tmp_path):
        journal = tmp_path / "grid.ckpt"
        value = 0.1 + 0.2  # not representable prettily
        with CheckpointWriter(journal, "fp", "code") as writer:
            writer.record("st", "k", value)
        assert load_checkpoint(journal).tasks["k"] == value

    def test_torn_final_line_is_tolerated(self, tmp_path):
        journal = tmp_path / "grid.ckpt"
        with CheckpointWriter(journal, "fp", "code") as writer:
            writer.record("st", "k1", 1.0)
            writer.record("st", "k2", 2.0)
        data = journal.read_bytes()
        journal.write_bytes(data[:-9])  # tear the last record mid-append
        state = load_checkpoint(journal)
        assert state.tasks == {"k1": 1.0}

    def test_mid_file_corruption_raises(self, tmp_path):
        journal = tmp_path / "grid.ckpt"
        with CheckpointWriter(journal, "fp", "code") as writer:
            writer.record("st", "k1", 1.0)
            writer.record("st", "k2", 2.0)
        lines = journal.read_bytes().split(b"\n")
        lines[1] = lines[1][:-4] + b"XXXX"
        journal.write_bytes(b"\n".join(lines))
        with pytest.raises(ConfigurationError, match="corrupt checkpoint"):
            load_checkpoint(journal)

    def test_missing_header_raises(self, tmp_path):
        journal = tmp_path / "grid.ckpt"
        journal.write_text('{"v": 1, "kind": "task", "key": "k", "data": ""}\n')
        with pytest.raises(ConfigurationError, match="header"):
            load_checkpoint(journal)

    def test_reopen_requires_matching_fingerprint(self, tmp_path):
        journal = tmp_path / "grid.ckpt"
        CheckpointWriter(journal, "fp-a", "code").close()
        CheckpointWriter(journal, "fp-a", "code").close()  # same fp appends
        with pytest.raises(ConfigurationError, match="different"):
            CheckpointWriter(journal, "fp-b", "code")

    def test_task_key_separates_code_versions(self):
        assert task_key("spec", "v1") != task_key("spec", "v2")
        assert task_key("spec", "v1") == task_key("spec", "v1")


def _grid(config, pairs, **kwargs):
    return run_grid(config, pairs, ExecutionSettings(**kwargs))


class TestGridFaultRecovery:
    """Interrupted-then-resumed == uninterrupted under hangs and torn
    journals, plus retry, abort/degrade and fingerprint handling."""

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_faulted_grid_resumes_bit_identical(
        self, config, clean_grid, tmp_path, jobs
    ):
        """Hangs only: crash and nan faults, which need no wall-clock
        timeout, are drawn by tests/integration/test_path_identity.py."""
        journal = tmp_path / "grid.ckpt"
        with faults.fault_injection(faults.parse_fault_plan("hang@0*9")):
            degraded = _grid(
                config,
                PAIRS,
                jobs=jobs,
                retries=0,
                on_failure="degrade",
                checkpoint=journal,
                task_timeout=1.0,
            )
        assert not degraded.ok
        assert [f.reason for f in degraded.failures] == ["timeout"]
        assert degraded.incomplete_pairs  # index 0 is a shared ST task
        # Resume without faults: exactly the missing work runs, and the
        # assembled grid equals the uninterrupted one, bit for bit.
        resumed = _grid(
            config, PAIRS, jobs=jobs, checkpoint=journal, resume=True
        )
        assert resumed.ok
        assert resumed.results == clean_grid
        assert resumed.resumed_tasks > 0

    def test_torn_checkpoint_writes_are_repaired(
        self, config, clean_grid, tmp_path, monkeypatch
    ):
        writers = []

        class RecordingWriter(CheckpointWriter):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                writers.append(self)

        monkeypatch.setattr(runner, "CheckpointWriter", RecordingWriter)
        clean = tmp_path / "clean.ckpt"
        _grid(config, PAIRS, jobs=1, checkpoint=clean)
        journal = tmp_path / "torn.ckpt"
        with faults.fault_injection(faults.parse_fault_plan("jtear@0*3")):
            outcome = _grid(config, PAIRS, jobs=1, checkpoint=journal)
        assert outcome.ok and outcome.results == clean_grid
        assert writers[-1].repaired == 3
        # Every tear was truncated away: the journal reads back exactly
        # the clean run's tasks, byte for byte.
        assert load_checkpoint(journal).tasks == load_checkpoint(clean).tasks
        assert journal.read_bytes() == clean.read_bytes()
        resumed = _grid(config, PAIRS, jobs=1, checkpoint=journal, resume=True)
        assert resumed.results == clean_grid
        assert resumed.resumed_tasks == len(load_checkpoint(clean).tasks)

    def test_retry_budget_recovers_in_one_run(self, config, clean_grid):
        with faults.fault_injection(faults.parse_fault_plan("crash@0")):
            outcome = _grid(config, PAIRS, jobs=2, retries=2)
        assert outcome.ok
        assert outcome.results == clean_grid
        assert outcome.retries == 1

    def test_abort_mode_raises_with_partial_outcome(self, config, tmp_path):
        with faults.fault_injection(faults.parse_fault_plan("crash@0*9")):
            with pytest.raises(GridExecutionError) as excinfo:
                _grid(config, PAIRS, jobs=2, retries=0, on_failure="abort")
        outcome = excinfo.value.outcome
        assert outcome is not None and not outcome.ok
        manifest = outcome.failure_manifest()
        assert manifest["failures"][0]["reason"] == "crash"
        assert degraded_outcomes()  # tracked for the CLI exit code

    def test_degraded_outcomes_tracking(self, config):
        assert degraded_outcomes() == []
        with faults.fault_injection(faults.parse_fault_plan("crash@0*9")):
            _grid(config, PAIRS, jobs=2, retries=0, on_failure="degrade")
        assert len(degraded_outcomes()) == 1
        reset_degraded()
        assert degraded_outcomes() == []

    def test_resume_rejects_foreign_fingerprint(
        self, config, tmp_path, clean_grid
    ):
        journal = tmp_path / "grid.ckpt"
        _grid(config, PAIRS, jobs=1, checkpoint=journal)
        other = replace(config, seed=config.seed + 1)
        with pytest.raises(ConfigurationError, match="refus"):
            _grid(other, PAIRS, jobs=1, checkpoint=journal, resume=True)

    def test_settings_validation(self):
        with pytest.raises(ConfigurationError):
            ExecutionSettings(on_failure="explode")
        with pytest.raises(ConfigurationError):
            ExecutionSettings(resume=True)
        with pytest.raises(ConfigurationError):
            ExecutionSettings(task_timeout=-1.0)
        with pytest.raises(ConfigurationError):
            ExecutionSettings(retries=-1)
        for value in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                ExecutionSettings(task_timeout=value)
            with pytest.raises(ConfigurationError):
                ExecutionSettings(retry_backoff=value)


class TestCacheQuarantine:
    def test_corrupt_entry_is_quarantined_not_deleted(
        self, config, clean_grid, tmp_path
    ):
        cache = ResultCache(tmp_path)
        cache.store(PAIRS[0], config, clean_grid[0])
        path = cache.path(PAIRS[0], config)
        path.write_bytes(b"garbage bytes")
        sink = telemetry.RingBufferSink()
        with telemetry.tracing(sink):
            assert cache.load(PAIRS[0], config) is None
        quarantined = path.with_name(path.name + ".quarantine")
        assert quarantined.exists()
        assert quarantined.read_bytes() == b"garbage bytes"
        assert not path.exists()
        assert cache.quarantined == [quarantined]
        corrupt = [e for e in sink.events if e.get("event") == "cache"
                   and e.get("outcome") == "corrupt"]
        assert len(corrupt) == 1

    def test_garbage_never_reaches_the_unpickler(
        self, config, clean_grid, tmp_path
    ):
        # Bare, this FRAME header makes pickle.loads raise
        # OverflowError; corrupt@k under seed 62632 wrote bytes like it.
        bomb = b"\x80\x04\x95" + b"\xff" * 8
        cache = ResultCache(tmp_path)
        cache.store(PAIRS[0], config, clean_grid[0])
        path = cache.path(PAIRS[0], config)
        for data in (bomb, bomb * 8, path.read_bytes()[:-1]):
            path.write_bytes(data)
            assert cache.load(PAIRS[0], config) is None
        assert len(cache.quarantined) == 3

    def test_missing_entry_is_silent_miss(self, config, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.load(PAIRS[0], config) is None
        assert cache.quarantined == []

    def test_corrupt_fault_exercises_quarantine_end_to_end(
        self, config, clean_grid, tmp_path
    ):
        with faults.fault_injection(faults.parse_fault_plan("corrupt@0")):
            first = _grid(config, PAIRS, jobs=1, cache_dir=tmp_path)
        assert first.ok and first.results == clean_grid
        # The stored entry for pair 0 was corrupted after the store;
        # the next run quarantines it, recomputes, and still matches.
        second = _grid(config, PAIRS, jobs=1, cache_dir=tmp_path)
        assert second.results == clean_grid
        assert second.stats.corrupt == 1
        assert second.stats.hits == 1 and second.stats.misses == 1
        third = _grid(config, PAIRS, jobs=1, cache_dir=tmp_path)
        assert third.stats.hits == 2 and third.stats.corrupt == 0

    def test_stale_tmp_files_are_swept(self, config, tmp_path):
        stale = tmp_path / "leftover-123.tmp"
        stale.write_bytes(b"partial write")
        old = time.time() - 7200.0
        os.utime(stale, (old, old))
        fresh = tmp_path / "inflight-456.tmp"
        fresh.write_bytes(b"being written right now")
        cache = ResultCache(tmp_path)
        assert not stale.exists()
        assert fresh.exists()  # within the grace window: left alone
        assert cache.swept == [stale]

    def test_store_leaves_no_tmp_behind(self, config, clean_grid, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(PAIRS[0], config, clean_grid[0])
        assert list(tmp_path.glob("*.tmp")) == []
        assert cache.load(PAIRS[0], config) == clean_grid[0]


class TestRobustnessTelemetry:
    def test_retry_and_failure_events_are_emitted(self, config):
        sink = telemetry.RingBufferSink()
        with telemetry.tracing(sink):
            with faults.fault_injection(faults.parse_fault_plan("crash@0*9")):
                _grid(config, PAIRS, jobs=2, retries=1, on_failure="degrade")
        names = [event["event"] for event in sink.events]
        assert "task_retry" in names and "task_failed" in names
        retry = next(e for e in sink.events if e["event"] == "task_retry")
        assert retry["reason"] == "crash" and retry["attempt"] == 2

    def test_checkpoint_events_are_emitted(self, config, tmp_path):
        journal = tmp_path / "grid.ckpt"
        sink = telemetry.RingBufferSink()
        with telemetry.tracing(sink):
            _grid(config, PAIRS, jobs=1, checkpoint=journal)
        writes = [e for e in sink.events if e["event"] == "checkpoint"
                  and e["action"] == "write"]
        assert writes and all(e["tasks"] == 1 for e in writes)
        sink = telemetry.RingBufferSink()
        with telemetry.tracing(sink):
            _grid(config, PAIRS, jobs=1, checkpoint=journal, resume=True)
        resumes = [e for e in sink.events if e["event"] == "checkpoint"
                   and e["action"] == "resume"]
        assert len(resumes) == 1 and resumes[0]["tasks"] == len(writes)

    def test_traced_faulted_grid_is_bit_identical(
        self, config, clean_grid
    ):
        sink = telemetry.RingBufferSink()
        with telemetry.tracing(sink):
            with faults.fault_injection(faults.parse_fault_plan("crash@1")):
                outcome = _grid(config, PAIRS, jobs=2, retries=2)
        assert outcome.results == clean_grid

    def test_summary_aggregates_robustness_events(self, tmp_path):
        from repro.telemetry.events import (
            cache_event,
            checkpoint_event,
            task_failed,
            task_retry,
        )
        from repro.telemetry.summary import render_summary, summarize_trace

        trace = tmp_path / "t.jsonl"
        events = [
            task_retry("soe_pair", "a@F0.5", 2, "timeout"),
            task_retry("soe_pair", "a@F0.5", 3, "crash"),
            task_failed("soe_pair", "a@F0.5", 3, "crash"),
            cache_event("corrupt", "a"),
            cache_event("sweep", "x.tmp"),
            checkpoint_event("write", 1, "grid.ckpt"),
            checkpoint_event("write", 1, "grid.ckpt"),
            checkpoint_event("resume", 2, "grid.ckpt"),
        ]
        trace.write_text(
            "".join(json.dumps(event) + "\n" for event in events)
        )
        summary = summarize_trace(trace)
        assert summary.task_retries == {"timeout": 1, "crash": 1}
        assert summary.task_failures == {"crash": 1}
        assert summary.cache_corrupt == 1 and summary.cache_swept == 1
        assert summary.checkpoint_writes == 2
        assert summary.checkpoint_resumed == 2
        text = render_summary(summary)
        assert "Robustness:" in text
        assert "checkpoint: 2 tasks journaled / 2 resumed" in text


class TestFaultCli:
    @pytest.fixture()
    def fake_grid_experiment(self, monkeypatch, config):
        from repro.experiments import registry
        from repro.experiments.registry import Experiment

        grid_config = config

        def run(config=None, **kwargs):
            del config, kwargs  # the tiny fixture grid, whatever the CLI says
            return run_grid(grid_config, PAIRS)

        fake = Experiment(
            "fake-grid", "tiny grid", "none", run, lambda result: "rendered"
        )
        monkeypatch.setitem(registry._experiments(), "fake-grid", fake)
        return "fake-grid"

    def test_clean_run_exits_zero(self, fake_grid_experiment, capsys):
        from repro.cli import main

        assert main([fake_grid_experiment]) == 0
        assert "rendered" in capsys.readouterr().out

    def test_abort_exits_two(self, fake_grid_experiment, capsys):
        from repro.cli import main

        code = main(
            [fake_grid_experiment, "--retries", "0",
             "--inject-faults", "crash@0*9"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "crash" in err

    def test_degrade_exits_three_and_writes_manifest(
        self, fake_grid_experiment, tmp_path, capsys
    ):
        from repro.cli import main

        journal = tmp_path / "grid.ckpt"
        code = main(
            [fake_grid_experiment, "--retries", "0",
             "--on-failure", "degrade",
             "--checkpoint", str(journal),
             "--inject-faults", "crash@0*9"]
        )
        assert code == 3
        manifest_path = tmp_path / "grid.ckpt.manifest.json"
        assert manifest_path.exists()
        manifest = json.loads(manifest_path.read_text())
        assert manifest["failures"][0]["reason"] == "crash"
        assert not manifest["ok"]
        # ...and --resume completes the grid with exit 0.
        capsys.readouterr()
        assert main([fake_grid_experiment, "--resume", str(journal)]) == 0

    def test_conflicting_checkpoint_and_resume_rejected(
        self, fake_grid_experiment, capsys
    ):
        from repro.cli import main

        assert main(
            [fake_grid_experiment, "--checkpoint", "a", "--resume", "b"]
        ) == 2
        assert "different journals" in capsys.readouterr().err

    def test_malformed_fault_spec_rejected(self, fake_grid_experiment, capsys):
        from repro.cli import main

        assert main([fake_grid_experiment, "--inject-faults", "bogus"]) == 2
        assert "malformed fault" in capsys.readouterr().err
