"""Sharded grid execution and the group-commit checkpoint journal.

Extends the fault-tolerance invariant to the sharded batch pre-pass: a
grid run at any ``--shards``/``--jobs`` combination -- including one
interrupted mid-shard and resumed at a *different* shard count -- is
bit-identical to the serial scalar grid, and the checkpoint journal
stays crash-consistent when records are group-committed per shard.
"""

from dataclasses import replace

import pytest

np = pytest.importorskip("numpy")

from repro import faults, telemetry
from repro.errors import ConfigurationError
from repro.experiments.checkpoint import CheckpointWriter, load_checkpoint
from repro.experiments.common import EvalConfig
from repro.experiments.runner import (
    CHECKPOINT_SYNC_MODES,
    ExecutionSettings,
    reset_degraded,
    run_grid,
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


def _grid(config, pairs, **kwargs):
    kwargs.setdefault("backend", "batch")
    return run_grid(config, pairs, ExecutionSettings(**kwargs))


class TestShardedGridIdentity:
    @pytest.mark.parametrize(
        "jobs,shards", [(2, 2), (2, 4), (3, 3), (2, "auto")]
    )
    def test_bit_identical_at_any_decomposition(
        self, config, clean_grid, jobs, shards
    ):
        outcome = _grid(config, PAIRS, jobs=jobs, shards=shards)
        assert outcome.ok
        assert outcome.results == clean_grid

    def test_single_shard_equals_in_process_batch(self, config, clean_grid):
        in_process = _grid(config, PAIRS, jobs=1, shards=1)
        assert in_process.results == clean_grid

    def test_crashed_shard_recovers_via_retry(self, config, clean_grid):
        with faults.fault_injection(faults.parse_fault_plan("crash@0")):
            outcome = _grid(config, PAIRS, jobs=2, shards=2, retries=2)
        assert outcome.ok
        assert outcome.results == clean_grid
        assert outcome.retries >= 1

    def test_failed_shard_falls_back_to_scalar_supervision(
        self, config, clean_grid, monkeypatch
    ):
        # Break the shard body itself (pool workers inherit the patch
        # at fork): every shard fails, its runs flow to the scalar
        # supervised remainder, and the grid still completes clean --
        # shard failures are not task failures.
        from repro.experiments import runner as runner_module

        def _explode(task):
            raise RuntimeError("shard execution disabled")

        monkeypatch.setattr(runner_module, "_run_shard_task", _explode)
        outcome = _grid(config, PAIRS, jobs=2, shards=2, retries=0)
        assert outcome.ok
        assert outcome.results == clean_grid

    def test_drained_shard_phase_starts_nothing_more_and_resumes(
        self, config, clean_grid, tmp_path, monkeypatch
    ):
        # A drain that lands after the first shard finishes: the shard
        # in flight completes, no other shard and no scalar remainder
        # starts, and a resume at another shard count completes the
        # grid bit-identically from what was journaled.
        from repro.experiments import runner as runner_module
        from repro.experiments.supervisor import Supervisor

        class DrainAfterFirstResult(Supervisor):
            def _accept(self, run, index, item, result):
                super()._accept(run, index, item, result)
                self.request_drain()

        monkeypatch.setattr(runner_module, "Supervisor", DrainAfterFirstResult)
        journal = tmp_path / "grid.ckpt"
        drained = _grid(
            config, PAIRS, jobs=2, shards=4, checkpoint=journal,
            on_failure="degrade",
        )
        assert drained.interrupted and not drained.ok
        assert drained.skipped_tasks > 0
        assert drained.results == []
        monkeypatch.undo()
        resumed = _grid(
            config, PAIRS, jobs=2, shards=2, checkpoint=journal, resume=True
        )
        assert resumed.ok
        assert resumed.results == clean_grid
        assert resumed.resumed_tasks > 0

    def test_shard_events_are_emitted(self, config, clean_grid):
        sink = telemetry.RingBufferSink()
        with telemetry.tracing(sink):
            outcome = _grid(config, PAIRS, jobs=2, shards=2)
        assert outcome.results == clean_grid
        events = [e for e in sink.events if e["event"] == "shard"]
        starts = [e for e in events if e["phase"] == "start"]
        stops = [e for e in events if e["phase"] == "stop"]
        assert {e["shard"] for e in starts} == {0, 1}
        assert {e["shard"] for e in stops} == {0, 1}
        assert all(e["shards"] == 2 and e["backend"] == "batch"
                   for e in events)
        assert sum(e["runs"] for e in stops) == \
            sum(e["runs"] for e in starts)


class TestShardedCheckpoint:
    def test_journal_notes_the_shard_plan(self, config, clean_grid, tmp_path):
        journal = tmp_path / "grid.ckpt"
        outcome = _grid(
            config, PAIRS, jobs=2, shards=2, checkpoint=journal
        )
        assert outcome.results == clean_grid
        state = load_checkpoint(journal)
        (note,) = [n for n in state.notes if "shard_plan" in n]
        assert note["shards"] == 2
        assert isinstance(note["shard_plan"], str)
        assert len(note["shard_plan"]) == 16

    def test_resume_at_a_different_shard_count(
        self, config, clean_grid, tmp_path
    ):
        journal = tmp_path / "grid.ckpt"
        with faults.fault_injection(faults.parse_fault_plan("crash@0*9")):
            degraded = _grid(
                config, PAIRS, jobs=2, shards=2, retries=0,
                on_failure="degrade", checkpoint=journal,
            )
        assert not degraded.ok
        resumed = _grid(
            config, PAIRS, jobs=2, shards=4, checkpoint=journal, resume=True
        )
        assert resumed.ok
        assert resumed.results == clean_grid
        assert resumed.resumed_tasks > 0
        # ...and a scalar-backend resume of the same journal agrees too.
        rerun = _grid(
            config, PAIRS, jobs=1, backend="scalar",
            checkpoint=journal, resume=True,
        )
        assert rerun.results == clean_grid

    def test_group_commit_round_trips_and_batches_writes(
        self, config, clean_grid, tmp_path
    ):
        journal = tmp_path / "grid.ckpt"
        sink = telemetry.RingBufferSink()
        with telemetry.tracing(sink):
            outcome = _grid(
                config, PAIRS, jobs=2, shards=2,
                checkpoint=journal, checkpoint_sync="shard",
            )
        assert outcome.results == clean_grid
        writes = [e for e in sink.events if e["event"] == "checkpoint"
                  and e["action"] == "write"]
        # Each shard's records land as one grouped write event.
        assert any(e["tasks"] > 1 for e in writes)
        complete = load_checkpoint(journal)
        # Every journaled record resumes; nothing recomputes.
        resumed = _grid(
            config, PAIRS, jobs=1, checkpoint=journal, resume=True
        )
        assert resumed.results == clean_grid
        assert resumed.resumed_tasks == len(complete.tasks)

    def test_torn_final_line_after_group_commit_is_tolerated(
        self, config, tmp_path
    ):
        journal = tmp_path / "grid.ckpt"
        _grid(
            config, PAIRS, jobs=2, shards=2,
            checkpoint=journal, checkpoint_sync="shard",
        )
        complete = load_checkpoint(journal)
        data = journal.read_bytes()
        journal.write_bytes(data[:-9])  # tear the last record mid-append
        torn = load_checkpoint(journal)
        assert len(torn.tasks) == len(complete.tasks) - 1


class TestGroupCommitJournal:
    """`record_many` / `note` primitives under the journal contract."""

    def test_record_many_is_one_write_many_records(self, tmp_path):
        journal = tmp_path / "grid.ckpt"
        with CheckpointWriter(journal, "fp", "code") as writer:
            writer.record_many(
                [("soe", f"k{i}", float(i)) for i in range(5)]
            )
        state = load_checkpoint(journal)
        assert state.tasks == {f"k{i}": float(i) for i in range(5)}

    def test_record_many_empty_is_a_noop(self, tmp_path):
        journal = tmp_path / "grid.ckpt"
        with CheckpointWriter(journal, "fp", "code") as writer:
            size_before = journal.stat().st_size
            writer.record_many([])
        assert journal.stat().st_size == size_before

    def test_notes_round_trip_and_never_gate_resume(self, tmp_path):
        journal = tmp_path / "grid.ckpt"
        with CheckpointWriter(journal, "fp", "code") as writer:
            writer.note({"shard_plan": "abc123", "shards": 4})
            writer.record("soe", "k", 1.0)
        state = load_checkpoint(journal)
        assert state.notes == [{"shard_plan": "abc123", "shards": 4}]
        assert state.tasks == {"k": 1.0}
        # Appending under the same fingerprint still works: notes are
        # informational lines, not part of the resume contract.
        CheckpointWriter(journal, "fp", "code").close()


class TestSettingsValidation:
    def test_rejects_bad_shards(self):
        with pytest.raises(ConfigurationError):
            ExecutionSettings(shards=0)
        with pytest.raises(ConfigurationError):
            ExecutionSettings(shards="fastest")

    def test_rejects_bad_checkpoint_sync(self):
        assert CHECKPOINT_SYNC_MODES == ("every", "shard")
        with pytest.raises(ConfigurationError):
            ExecutionSettings(checkpoint_sync="sometimes")

    def test_cli_shard_parsing(self):
        from repro.cli import _parse_shards

        assert _parse_shards("auto") == "auto"
        assert _parse_shards("4") == 4
        with pytest.raises(ConfigurationError):
            _parse_shards("many")
