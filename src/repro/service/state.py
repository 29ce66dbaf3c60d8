"""Durable job state: the service's checkpoint journal.

Every accepted job and every outcome is journaled in the grid
checkpoint format (:mod:`repro.experiments.checkpoint`): one fsync'd
JSONL line per record, a fingerprint header, base64-pickled payloads so
results round-trip bit-identically. A service killed at *any* instant
restarts from its journal with nothing lost but the in-flight attempt:

* ``spec:<id>``  -- the accepted :class:`~repro.service.jobs.JobSpec`
  (as its JSON form), written at admission;
* ``done:<id>``  -- the finished ``PairResult`` pickle;
* ``fail:<id>``  -- the failure record of an exhausted job.

On boot, :func:`load_job_records` folds the journal: a job with a
``done:``/``fail:`` record is terminal and served from the journal; a
``spec:`` without one is *resumed* -- re-enqueued for execution, where
the result cache usually answers instantly if the work had finished
but the outcome line was lost to the crash.

Appends flow through the checkpoint writer's ``jtear`` chaos hook: a
covered write first lands *torn* (truncated mid-line, exactly what a
power cut inside ``write(2)`` leaves), then the writer verifies and
repairs -- truncating the tear and rewriting the full line. The loader
independently tolerates a torn *final* line, so both halves of the
crash window are exercised by tests.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Tuple, Union

from repro.errors import ConfigurationError
from repro.experiments.checkpoint import CheckpointWriter, load_checkpoint

__all__ = [
    "JOURNAL_FINGERPRINT",
    "JobJournal",
    "load_job_records",
]

#: Journal fingerprint: pins the journal to the service's record
#: layout. The simulator code version is deliberately *not* mixed in
#: here -- job ids already encode it, so a journal survives restarts
#: across deploys and stale jobs simply re-dedupe under their own ids.
JOURNAL_FINGERPRINT = "repro-service-v1"

_PREFIXES = ("spec", "done", "fail")


class JobJournal:
    """Append-only journal of job specs and outcomes, one
    :class:`~repro.experiments.checkpoint.CheckpointWriter` record per
    line (so ``jtear`` chaos and its repair apply to every append)."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._writer = CheckpointWriter(
            self.path, JOURNAL_FINGERPRINT, code_version="service"
        )

    def _record(self, prefix: str, job_id: str, payload: object) -> None:
        self._writer.record("job", f"{prefix}:{job_id}", payload)

    def record_spec(self, job_id: str, spec_json: dict) -> None:
        """Journal an accepted job's spec (its JSON form)."""
        self._record("spec", job_id, spec_json)

    def record_done(self, job_id: str, result: object) -> None:
        """Journal a finished job's result (pickled bit-identically)."""
        self._record("done", job_id, result)

    def record_fail(self, job_id: str, failure: dict) -> None:
        """Journal an exhausted job's failure record."""
        self._record("fail", job_id, failure)

    def note(self, payload: dict) -> None:
        """Journal an informational note (drain markers, resume info)."""
        self._writer.note(payload)

    def close(self) -> None:
        self._writer.close()

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def load_job_records(
    path: Union[str, Path],
) -> Tuple[Dict[str, dict], Dict[str, object], Dict[str, dict]]:
    """Fold a job journal into ``(specs, results, failures)`` by job id.

    Returns empty mappings for a missing file (a fresh service).
    Raises :class:`~repro.errors.ConfigurationError` for a journal
    written by something other than the service, or for corruption
    anywhere but the final line -- the same crash-explains-it contract
    the grid loader enforces.
    """
    journal = Path(path)
    if not journal.exists():
        return {}, {}, {}
    state = load_checkpoint(journal)
    if state.fingerprint != JOURNAL_FINGERPRINT:
        raise ConfigurationError(
            f"{journal} is not a service job journal (fingerprint "
            f"{state.fingerprint!r}); refusing to mix job state"
        )
    specs: Dict[str, dict] = {}
    results: Dict[str, object] = {}
    failures: Dict[str, dict] = {}
    buckets = {"spec": specs, "done": results, "fail": failures}
    for key, payload in state.tasks.items():
        prefix, sep, job_id = key.partition(":")
        if not sep or prefix not in _PREFIXES or not job_id:
            raise ConfigurationError(
                f"{journal}: unrecognized job record key {key!r}"
            )
        buckets[prefix][job_id] = payload
    return specs, results, failures
