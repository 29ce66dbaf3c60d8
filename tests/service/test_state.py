"""Journal durability: round-trips, torn writes, and the jtear chaos."""

import pickle

import pytest

from repro import faults
from repro.errors import ConfigurationError
from repro.experiments.checkpoint import CheckpointWriter, load_checkpoint
from repro.service.state import (
    JOURNAL_FINGERPRINT,
    JobJournal,
    load_job_records,
)


@pytest.fixture
def path(tmp_path):
    return tmp_path / "jobs.jsonl"


class TestRoundTrip:
    def test_missing_journal_is_a_fresh_service(self, path):
        assert load_job_records(path) == ({}, {}, {})

    def test_spec_done_fail_records_fold_by_job_id(self, path):
        with JobJournal(path) as journal:
            journal.record_spec("aaa", {"tenant": "t", "pair": "gcc:eon"})
            journal.record_spec("bbb", {"tenant": "t", "pair": "gcc:gcc"})
            journal.record_done("aaa", {"ipc": 1.25})
            journal.record_fail("bbb", {"state": "failed", "attempts": 3})
        specs, results, failures = load_job_records(path)
        assert set(specs) == {"aaa", "bbb"}
        assert results == {"aaa": {"ipc": 1.25}}
        assert failures == {"bbb": {"state": "failed", "attempts": 3}}

    def test_result_payloads_round_trip_bit_identically(self, path):
        payload = ("nested", (1.5, float("inf")), {"deep": [1, 2, 3]})
        with JobJournal(path) as journal:
            journal.record_done("aaa", payload)
        _specs, results, _failures = load_job_records(path)
        assert pickle.dumps(results["aaa"]) == pickle.dumps(payload)

    def test_rewritten_record_latest_wins(self, path):
        with JobJournal(path) as journal:
            journal.record_done("aaa", {"v": 1})
            journal.record_done("aaa", {"v": 2})
        _specs, results, _failures = load_job_records(path)
        assert results["aaa"] == {"v": 2}

    def test_notes_survive_in_order(self, path):
        with JobJournal(path) as journal:
            journal.note({"what": "drain", "backlog": 3})
            journal.note({"what": "drain", "backlog": 0})
        assert load_checkpoint(path).notes == [
            {"what": "drain", "backlog": 3},
            {"what": "drain", "backlog": 0},
        ]

    def test_closed_journal_refuses_appends(self, path):
        journal = JobJournal(path)
        journal.close()
        with pytest.raises(ConfigurationError):
            journal.record_spec("aaa", {})


class TestCorruption:
    def test_foreign_fingerprint_is_refused(self, path):
        with CheckpointWriter(path, "some-grid-fingerprint",
                              code_version="x"):
            pass
        with pytest.raises(ConfigurationError, match="fingerprint"):
            load_job_records(path)

    def test_unrecognized_record_key_is_refused(self, path):
        with JobJournal(path) as journal:
            journal._writer.record("job", "bogus-key-no-prefix", {})
        with pytest.raises(ConfigurationError, match="unrecognized"):
            load_job_records(path)

    def test_torn_final_line_is_tolerated(self, path):
        """A crash mid-append must explain itself: everything before
        the torn tail loads; the tail is dropped."""
        with JobJournal(path) as journal:
            journal.record_spec("aaa", {"tenant": "t"})
            journal.record_done("aaa", {"ok": True})
        data = path.read_bytes()
        path.write_bytes(data[:-7])  # tear the last record mid-line
        specs, results, _failures = load_job_records(path)
        assert set(specs) == {"aaa"}
        assert results == {}


class TestJtearChaos:
    def _plan(self, index, count=1):
        return faults.FaultPlan(
            specs=(faults.FaultSpec(kind="jtear", index=index, count=count),)
        )

    def test_covered_writes_are_torn_then_repaired(self, path):
        with faults.fault_injection(self._plan(index=0, count=2)):
            with JobJournal(path) as journal:
                journal.record_spec("aaa", {"tenant": "t"})
                journal.record_done("aaa", {"ok": True})
                journal.record_done("bbb", {"ok": False})
                assert journal._writer.repaired == 2
        # Despite two injected tears, the journal reads back whole.
        specs, results, _failures = load_job_records(path)
        assert set(specs) == {"aaa"}
        assert set(results) == {"aaa", "bbb"}

    def test_tear_indices_count_journal_appends(self, path):
        with faults.fault_injection(self._plan(index=1)):
            with JobJournal(path) as journal:
                journal.record_spec("aaa", {})  # write 0: untouched
                journal.record_done("aaa", {})  # write 1: torn+repaired
                journal.record_done("bbb", {})  # write 2: untouched
                assert journal._writer.repaired == 1

    def test_repair_leaves_no_partial_bytes_behind(self, path):
        """After verify-and-repair every line in the file is complete
        JSON -- the torn prefix was truncated away, not buried."""
        with faults.fault_injection(self._plan(index=0, count=3)):
            with JobJournal(path) as journal:
                journal.record_spec("aaa", {"tenant": "t"})
                journal.record_done("aaa", {"deep": {"x": [1, 2]}})
        import json

        for line in path.read_text().splitlines():
            json.loads(line)

    def test_no_plan_means_no_tears(self, path):
        with JobJournal(path) as journal:
            journal.record_spec("aaa", {})
            assert journal._writer.repaired == 0
