"""Append-only checkpoint journal for grid executions.

A multi-hour sweep must survive crashes, hangs, and Ctrl-C without
losing finished simulation. The journal records every completed grid
*task* (single-thread baseline or one (pair, level) SOE run) as one
self-contained JSONL line, so a later ``--resume`` run can skip exactly
the work that already happened and produce a :class:`GridOutcome`
bit-identical to an uninterrupted run.

Format (schema-versioned, documented in ``docs/ROBUSTNESS.md``)::

    {"v": 1, "kind": "header", "fingerprint": "...", "code_version": "..."}
    {"v": 1, "kind": "task", "task": "st",  "key": "...", "data": "<b64>"}
    {"v": 1, "kind": "task", "task": "soe", "key": "...", "data": "<b64>"}
    {"v": 1, "kind": "note", "note": {...}}

* ``fingerprint`` pins the exact computation (config fields, pair list,
  simulator code version); resuming under a different fingerprint is a
  :class:`~repro.errors.ConfigurationError`, never silent reuse.
* ``key`` content-addresses one task spec (same idea as the result
  cache); ``data`` is the base64 pickle of the task's result, so floats
  round-trip exactly and resumed grids stay bit-identical.
* ``note`` lines are informational annotations; the loader collects
  them but they never gate resume.
* Writes are crash-safe by construction: each record is a single
  ``O_APPEND`` ``os.write`` followed by ``fsync``; a group commit
  (:meth:`CheckpointWriter.record_many`) joins many complete lines into
  that one write. Either way a torn
  line can only ever be the last one -- and the loader tolerates
  exactly that.
* Every append after the header flows through the ambient fault plan's
  ``jtear`` hook: a covered write first lands *torn* (truncated
  mid-line, exactly what a power cut inside ``write(2)`` leaves), then
  the writer verifies and repairs -- truncating the tear and rewriting
  the whole append. The grid checkpoint and the service's job journal
  (:mod:`repro.service.state`) share this writer, so both get the same
  chaos coverage.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro import faults
from repro.errors import ConfigurationError

__all__ = [
    "CHECKPOINT_VERSION",
    "task_key",
    "CheckpointState",
    "CheckpointWriter",
    "load_checkpoint",
]

#: Bump when the journal's line layout changes.
CHECKPOINT_VERSION = 1


def task_key(task: object, code_version: str) -> str:
    """Content address of one task spec under one simulator version.

    Task specs are frozen dataclasses of primitives whose ``repr`` is
    deterministic; hashing it alongside the code version means a
    checkpoint can never replay results for changed code or config.
    """
    payload = repr((CHECKPOINT_VERSION, code_version, task))
    return hashlib.sha256(payload.encode()).hexdigest()[:32]


@dataclass
class CheckpointState:
    """Everything a journal holds: its header and the completed tasks."""

    header: dict
    #: task key -> unpickled task result
    tasks: dict = field(default_factory=dict)
    #: informational "note" line payloads, in journal order
    notes: list = field(default_factory=list)

    @property
    def fingerprint(self) -> str:
        return str(self.header.get("fingerprint", ""))


def _decode_line(obj: object, path: Path, line_no: int) -> dict:
    if not isinstance(obj, dict):
        raise ConfigurationError(
            f"{path}:{line_no}: checkpoint line must be an object"
        )
    if obj.get("v") != CHECKPOINT_VERSION:
        raise ConfigurationError(
            f"{path}:{line_no}: checkpoint version {obj.get('v')!r} "
            f"(expected {CHECKPOINT_VERSION})"
        )
    return obj


def load_checkpoint(path: Union[str, Path]) -> CheckpointState:
    """Read a journal back; tolerates a torn (partial) final line.

    Raises :class:`~repro.errors.ConfigurationError` for anything a
    crash cannot explain: a missing or malformed header, or corruption
    before the final line.
    """
    journal = Path(path)
    if not journal.exists():
        raise ConfigurationError(f"checkpoint file not found: {journal}")
    raw_lines = journal.read_bytes().split(b"\n")
    state: Optional[CheckpointState] = None
    for line_no, raw in enumerate(raw_lines, start=1):
        if not raw.strip():
            continue
        # A line can only be torn if the crash happened mid-append: it
        # is the file's final bytes and has no trailing newline.
        torn_ok = line_no == len(raw_lines)
        try:
            obj = _decode_line(json.loads(raw.decode("utf-8")), journal, line_no)
            kind = obj.get("kind")
            if state is None:
                if kind != "header":
                    raise ConfigurationError(
                        f"{journal}:{line_no}: first checkpoint line must "
                        "be the header"
                    )
                state = CheckpointState(header=obj)
                continue
            if kind == "note":
                state.notes.append(obj.get("note", {}))
                continue
            if kind != "task":
                raise ConfigurationError(
                    f"{journal}:{line_no}: unknown checkpoint line kind "
                    f"{kind!r}"
                )
            key = obj["key"]
            data = base64.b64decode(obj["data"], validate=True)
            state.tasks[key] = pickle.loads(data)
        except ConfigurationError:
            raise
        except Exception as error:
            # A crash mid-append can only tear the final line; anything
            # earlier is real corruption and must not be silently
            # dropped (the run would quietly recompute — or worse,
            # skip — the wrong tasks).
            if torn_ok:
                break
            raise ConfigurationError(
                f"{journal}:{line_no}: corrupt checkpoint line ({error})"
            ) from error
    if state is None:
        raise ConfigurationError(f"{journal}: empty checkpoint (no header)")
    return state


def _append(fd: int, payload: bytes) -> None:
    # One O_APPEND write + one fsync, whether this commits one line or
    # a group commit's worth: every line but possibly the file's final
    # one is complete on disk, which is exactly the torn-line tolerance
    # the loader grants.
    os.write(fd, payload)
    os.fsync(fd)


def _encode(objs: list) -> bytes:
    """Journal lines for ``objs``: compact, key-sorted JSON, one each."""
    return b"".join(
        json.dumps(obj, separators=(",", ":"), sort_keys=True).encode("utf-8")
        + b"\n"
        for obj in objs
    )


class CheckpointWriter:
    """Appends task records to a journal, one fsync'd line at a time.

    Opening an existing journal validates its header against the
    current run's ``fingerprint`` (append-after-resume must target the
    same computation); a fresh file gets the header written first.
    """

    def __init__(self, path: Union[str, Path], fingerprint: str,
                 code_version: str) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint
        self.path.parent.mkdir(parents=True, exist_ok=True)
        preexisting = self.path.exists() and self.path.stat().st_size > 0
        if preexisting:
            state = load_checkpoint(self.path)
            if state.fingerprint != fingerprint:
                raise ConfigurationError(
                    f"checkpoint {self.path} was written for a different "
                    "grid (config, pair list, or simulator code changed); "
                    "refusing to mix results — delete it or pass a fresh "
                    "path"
                )
        fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        self._fd: Optional[int] = fd
        #: appends after the header so far (the ``jtear`` write index)
        self._appends = 0
        #: torn appends repaired over this writer's lifetime
        self.repaired = 0
        if not preexisting:
            _append(
                fd,
                _encode(
                    [
                        {
                            "v": CHECKPOINT_VERSION,
                            "kind": "header",
                            "fingerprint": fingerprint,
                            "code_version": code_version,
                        }
                    ]
                )
            )

    def _write_lines(self, objs: list) -> None:
        fd = self._fd
        if fd is None:
            raise ConfigurationError("checkpoint writer is closed")
        payload = _encode(objs)
        index = self._appends
        self._appends += 1
        plan = faults.current_plan()
        if plan.active and plan.tears_write(index):
            # Chaos: land the torn prefix first (the crash window a
            # power cut leaves), then verify-and-repair it.
            offset = os.fstat(fd).st_size
            _append(fd, payload[: max(len(payload) // 2, 1)])
            os.ftruncate(fd, offset)
            self.repaired += 1
        _append(fd, payload)

    def _write_line(self, obj: dict) -> None:
        self._write_lines([obj])

    @staticmethod
    def _task_line(task_kind: str, key: str, payload: object) -> dict:
        return {
            "v": CHECKPOINT_VERSION,
            "kind": "task",
            "task": task_kind,
            "key": key,
            "data": base64.b64encode(pickle.dumps(payload)).decode("ascii"),
        }

    def record(self, task_kind: str, key: str, payload: object) -> None:
        """Journal one completed task result (atomic, durable)."""
        self._write_line(self._task_line(task_kind, key, payload))

    def record_many(self, records: list) -> None:
        """Group-commit ``(task_kind, key, payload)`` records.

        All lines land in one append and one fsync -- the per-record
        durability cost amortizes over the group without weakening the
        crash contract.
        """
        if not records:
            return
        self._write_lines(
            [self._task_line(kind, key, value) for kind, key, value in records]
        )

    def note(self, payload: dict) -> None:
        """Journal an informational note line (never gates resume)."""
        self._write_line(
            {"v": CHECKPOINT_VERSION, "kind": "note", "note": payload}
        )

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "CheckpointWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
