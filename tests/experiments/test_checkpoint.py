"""Group-commit primitives of the checkpoint journal.

``CheckpointWriter.record_many`` joins many task records into one
append and one fsync, and ``note`` lines annotate a journal without
gating resume. Neither changes the crash contract: a torn line can
only ever be the last one, and the loader tolerates exactly that.
"""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.checkpoint import CheckpointWriter, load_checkpoint
from repro.experiments.runner import CHECKPOINT_SYNC_MODES, ExecutionSettings


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

    def test_torn_final_line_after_group_commit_is_tolerated(self, tmp_path):
        journal = tmp_path / "grid.ckpt"
        with CheckpointWriter(journal, "fp", "code") as writer:
            writer.record_many(
                [("soe", f"k{i}", float(i)) for i in range(4)]
            )
            writer.record_many(
                [("soe", f"k{i}", float(i)) for i in range(4, 8)]
            )
        complete = load_checkpoint(journal)
        data = journal.read_bytes()
        journal.write_bytes(data[:-9])  # tear the last record mid-append
        torn = load_checkpoint(journal)
        assert len(torn.tasks) == len(complete.tasks) - 1


class TestCheckpointSync:
    def test_every_record_is_the_only_mode(self):
        assert CHECKPOINT_SYNC_MODES == ("every",)
        assert ExecutionSettings().checkpoint_sync == "every"
        for mode in ("shard", "sometimes"):
            with pytest.raises(ConfigurationError):
                ExecutionSettings(checkpoint_sync=mode)
