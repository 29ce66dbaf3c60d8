"""Typed trace events and their line schema.

Every trace line is one JSON object with a fixed envelope:

* ``event`` -- the event name (one per builder function below);
* ``cat``   -- the event's category, one of :data:`CATEGORIES`
  (``controller`` = Delta-boundary mechanism samples, ``switch`` =
  engine-level thread scheduling, ``runner`` = experiment-grid task
  execution);
* ``v``     -- the schema version (:data:`SCHEMA_VERSION`);
* payload fields as listed in :data:`EVENT_SCHEMAS`.

Events are plain dicts (cheap to build, trivially serializable); the
builder functions are the only place they are constructed, so the
schema table below is authoritative. Non-finite floats (an ``inf``
quota before the first estimate, an ``inf`` deficit) are encoded as the
strings ``"inf"`` / ``"-inf"`` so every line stays strict JSON.

:func:`validate_event` / :func:`validate_trace_file` check conformance;
the CI grid-smoke job validates every line of its trace artifact.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence, Union

from repro.errors import ConfigurationError

__all__ = [
    "SCHEMA_VERSION",
    "CONTROLLER",
    "SWITCH",
    "RUNNER",
    "CATEGORIES",
    "SWITCH_CAUSES",
    "EVENT_SCHEMAS",
    "parse_categories",
    "controller_sample",
    "thread_switch",
    "segment_end",
    "stall",
    "task_event",
    "task_retry",
    "task_failed",
    "cache_event",
    "checkpoint_event",
    "job_event",
    "queue_event",
    "breaker_event",
    "sink_degraded_event",
    "validate_event",
    "validate_trace_file",
]

#: Bump when an event's envelope or payload layout changes.
#: v2: ``task`` events carry the switch policy enforcing the run.
#: v3: ``task_retry`` carries the deterministic retry backoff
#: (``backoff_s``); new service-layer events ``job``/``queue``/
#: ``breaker`` and the sink self-report ``sink_degraded``.
#: v4: ``queue`` drops ``deficit`` (DRR job cost and credit are both
#: one, so the counter always read 0).
SCHEMA_VERSION = 4

CONTROLLER = "controller"
SWITCH = "switch"
RUNNER = "runner"

#: The three event categories (``--trace-events`` selects a subset).
CATEGORIES = frozenset((CONTROLLER, SWITCH, RUNNER))

#: Why a thread yielded the core (matches ``SwitchPolicy.on_switch_out``).
SWITCH_CAUSES = frozenset(("miss", "quota", "cycle_quota", "done"))

#: The simulation substrate an engine-level event came from.
_SUBSTRATES = frozenset(("engine", "cpu"))

_TASK_PHASES = frozenset(("start", "stop"))
#: ``corrupt`` = a quarantined cache entry, ``sweep`` = a stale temp
#: file removed at startup (see docs/ROBUSTNESS.md).
_CACHE_OUTCOMES = frozenset(("hit", "miss", "corrupt", "sweep"))
#: Failure classifications (mirrors :data:`repro.errors.FAILURE_REASONS`).
_FAILURE_REASONS = frozenset(("timeout", "crash", "invariant", "error"))
_CHECKPOINT_ACTIONS = frozenset(("write", "resume"))
#: Job lifecycle phases of the simulation service (docs/SERVICE.md).
_JOB_PHASES = frozenset(
    (
        "submitted",  # admitted into a tenant queue
        "cached",     # answered from the result cache / journal, no run
        "dispatched",  # handed to a pool worker
        "completed",  # result accepted and journaled
        "failed",     # exhausted its retry budget
        "expired",    # deadline passed before completion
        "rejected",   # refused at admission (backpressure / drain)
        "resumed",    # re-enqueued from the journal after a restart
    )
)
_QUEUE_ACTIONS = frozenset(("enqueue", "dispatch", "reject"))
_BREAKER_STATES = frozenset(("closed", "open", "half_open"))

Number = Union[int, float, str]


def parse_categories(text: Optional[str]) -> Optional[frozenset]:
    """Parse a ``--trace-events`` value ("controller,switch", ...).

    Returns None (= every category) for None or empty input; raises
    :class:`~repro.errors.ConfigurationError` on unknown names.
    """
    if text is None or not text.strip():
        return None
    names = frozenset(part.strip() for part in text.split(",") if part.strip())
    unknown = names - CATEGORIES
    if unknown:
        raise ConfigurationError(
            f"unknown trace categories {sorted(unknown)}; "
            f"choose from {sorted(CATEGORIES)}"
        )
    return names


def _num(value: float) -> Number:
    """Encode a float JSON-strictly (non-finite values as strings)."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value


def _nums(values: Sequence[float]) -> list:
    return [_num(v) for v in values]


# ---------------------------------------------------------------------------
# Builders (the only constructors of trace events)
# ---------------------------------------------------------------------------


def controller_sample(
    time: float,
    instructions: Sequence[float],
    cycles: Sequence[float],
    misses: Sequence[int],
    ipc_st: Sequence[float],
    quotas: Sequence[float],
    deficits: Sequence[float],
) -> dict:
    """One ``Delta`` boundary of the fairness mechanism.

    Per-thread arrays are index-aligned: the counter snapshots of the
    window just closed (``instructions``/``cycles``/``misses``), the
    Eq. 13 single-thread IPC estimates derived from them, the Eq. 9
    ``IPSw`` quotas now in force, and the deficit-counter values.
    """
    return {
        "event": "sample",
        "cat": CONTROLLER,
        "v": SCHEMA_VERSION,
        "t": _num(time),
        "instructions": _nums(instructions),
        "cycles": _nums(cycles),
        "misses": list(misses),
        "ipc_st": _nums(ipc_st),
        "quotas": _nums(quotas),
        "deficits": _nums(deficits),
    }


def thread_switch(time: float, thread_id: int, cause: str, substrate: str) -> dict:
    """The active thread yielded the core (with the reason why)."""
    return {
        "event": "switch",
        "cat": SWITCH,
        "v": SCHEMA_VERSION,
        "t": _num(time),
        "thread": thread_id,
        "cause": cause,
        "substrate": substrate,
    }


def segment_end(time: float, thread_id: int, latency: Optional[float]) -> dict:
    """A segment-model thread finished one instruction segment.

    ``latency`` is the miss latency the segment ends with (None for a
    miss-free join between segments or end-of-stream).
    """
    return {
        "event": "segment",
        "cat": SWITCH,
        "v": SCHEMA_VERSION,
        "t": _num(time),
        "thread": thread_id,
        "latency": None if latency is None else _num(latency),
    }


def stall(time: float, duration: float, substrate: str) -> dict:
    """The core went idle (no thread ready) for ``duration`` cycles."""
    return {
        "event": "stall",
        "cat": SWITCH,
        "v": SCHEMA_VERSION,
        "t": _num(time),
        "duration": _num(duration),
        "substrate": substrate,
    }


def task_event(
    phase: str,
    kind: str,
    label: str,
    worker: int,
    wall_s: Optional[float] = None,
    policy: Optional[str] = None,
) -> dict:
    """One experiment-grid task starting or stopping on a worker.

    ``worker`` is the executing process id; ``wall_s`` is the task's
    wall-clock duration (stop events only). ``policy`` names the
    registered switch policy enforcing the run (None for tasks with no
    policy dimension, e.g. single-thread baselines).
    """
    return {
        "event": "task",
        "cat": RUNNER,
        "v": SCHEMA_VERSION,
        "phase": phase,
        "kind": kind,
        "label": label,
        "worker": worker,
        "wall_s": None if wall_s is None else _num(wall_s),
        "policy": policy,
    }


def task_retry(
    kind: str, label: str, attempt: int, reason: str,
    backoff_s: float = 0.0,
) -> dict:
    """A failed grid task is being retried (``attempt`` starts next).

    ``reason`` classifies the failure that triggered the retry using
    the taxonomy of :mod:`repro.errors` (timeout/crash/invariant/error);
    ``backoff_s`` is the deterministic seeded-jitter delay before the
    retry launches (0 = immediate respawn).
    """
    return {
        "event": "task_retry",
        "cat": RUNNER,
        "v": SCHEMA_VERSION,
        "kind": kind,
        "label": label,
        "attempt": attempt,
        "reason": reason,
        "backoff_s": _num(backoff_s),
    }


def task_failed(kind: str, label: str, attempts: int, reason: str) -> dict:
    """A grid task exhausted its retry budget and was abandoned."""
    return {
        "event": "task_failed",
        "cat": RUNNER,
        "v": SCHEMA_VERSION,
        "kind": kind,
        "label": label,
        "attempts": attempts,
        "reason": reason,
    }


def cache_event(outcome: str, label: str) -> dict:
    """One on-disk result-cache event for a grid cell or cache file.

    ``hit``/``miss`` describe lookups; ``corrupt`` reports an entry
    quarantined on load; ``sweep`` reports a stale temp file removed.
    """
    return {
        "event": "cache",
        "cat": RUNNER,
        "v": SCHEMA_VERSION,
        "outcome": outcome,
        "label": label,
    }


def checkpoint_event(action: str, tasks: int, path: str) -> dict:
    """Checkpoint-journal activity: a task record written, or a resume
    that skipped ``tasks`` already-completed tasks."""
    return {
        "event": "checkpoint",
        "cat": RUNNER,
        "v": SCHEMA_VERSION,
        "action": action,
        "tasks": tasks,
        "path": path,
    }


def job_event(phase: str, tenant: str, job: str, detail: Optional[str] = None) -> dict:
    """One simulation-service job crossing a lifecycle boundary.

    ``job`` is the job's content-hash id; ``detail`` carries the
    phase-specific annotation (failure reason, rejection cause, the
    cache/journal source of a ``cached`` answer).
    """
    return {
        "event": "job",
        "cat": RUNNER,
        "v": SCHEMA_VERSION,
        "phase": phase,
        "tenant": tenant,
        "job": job,
        "detail": detail,
    }


def queue_event(action: str, tenant: str, depth: int) -> dict:
    """One per-tenant DRR queue transition in the simulation service.

    ``depth`` is the tenant's queue depth after the action.
    """
    return {
        "event": "queue",
        "cat": RUNNER,
        "v": SCHEMA_VERSION,
        "action": action,
        "tenant": tenant,
        "depth": depth,
    }


def breaker_event(state: str, failures: int) -> dict:
    """The service circuit breaker changed state.

    ``failures`` is the number of crash/timeout outcomes in the rolling
    window at the moment of the transition.
    """
    return {
        "event": "breaker",
        "cat": RUNNER,
        "v": SCHEMA_VERSION,
        "state": state,
        "failures": failures,
    }


def sink_degraded_event(path: str, error: str) -> dict:
    """A JSONL trace sink hit an unwritable file (ENOSPC/EPIPE/...) and
    degraded to a null sink; simulation results are unaffected."""
    return {
        "event": "sink_degraded",
        "cat": RUNNER,
        "v": SCHEMA_VERSION,
        "path": path,
        "error": error,
    }


# ---------------------------------------------------------------------------
# Schema + validation
# ---------------------------------------------------------------------------


def _is_number(value: object) -> bool:
    """A finite JSON number or an encoded non-finite float string."""
    if isinstance(value, bool):
        return False
    if isinstance(value, (int, float)):
        return math.isfinite(value)
    return value in ("inf", "-inf", "nan")


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _number_list(value: object) -> bool:
    return isinstance(value, list) and all(_is_number(v) for v in value)


def _int_list(value: object) -> bool:
    return isinstance(value, list) and all(_is_int(v) for v in value)


def _optional_number(value: object) -> bool:
    return value is None or _is_number(value)


def _string(value: object) -> bool:
    return isinstance(value, str)


def _optional_string(value: object) -> bool:
    return value is None or isinstance(value, str)


def _enum(*allowed: str) -> Callable[[object], bool]:
    def check(value: object) -> bool:
        return value in allowed

    return check


#: event name -> (category, {payload field -> validator}).
EVENT_SCHEMAS: Mapping[str, tuple] = {
    "sample": (
        CONTROLLER,
        {
            "t": _is_number,
            "instructions": _number_list,
            "cycles": _number_list,
            "misses": _int_list,
            "ipc_st": _number_list,
            "quotas": _number_list,
            "deficits": _number_list,
        },
    ),
    "switch": (
        SWITCH,
        {
            "t": _is_number,
            "thread": _is_int,
            "cause": _enum(*SWITCH_CAUSES),
            "substrate": _enum(*_SUBSTRATES),
        },
    ),
    "segment": (
        SWITCH,
        {
            "t": _is_number,
            "thread": _is_int,
            "latency": _optional_number,
        },
    ),
    "stall": (
        SWITCH,
        {
            "t": _is_number,
            "duration": _is_number,
            "substrate": _enum(*_SUBSTRATES),
        },
    ),
    "task": (
        RUNNER,
        {
            "phase": _enum(*_TASK_PHASES),
            "kind": _string,
            "label": _string,
            "worker": _is_int,
            "wall_s": _optional_number,
            "policy": _optional_string,
        },
    ),
    "task_retry": (
        RUNNER,
        {
            "kind": _string,
            "label": _string,
            "attempt": _is_int,
            "reason": _enum(*_FAILURE_REASONS),
            "backoff_s": _is_number,
        },
    ),
    "task_failed": (
        RUNNER,
        {
            "kind": _string,
            "label": _string,
            "attempts": _is_int,
            "reason": _enum(*_FAILURE_REASONS),
        },
    ),
    "cache": (
        RUNNER,
        {
            "outcome": _enum(*_CACHE_OUTCOMES),
            "label": _string,
        },
    ),
    "checkpoint": (
        RUNNER,
        {
            "action": _enum(*_CHECKPOINT_ACTIONS),
            "tasks": _is_int,
            "path": _string,
        },
    ),
    "job": (
        RUNNER,
        {
            "phase": _enum(*_JOB_PHASES),
            "tenant": _string,
            "job": _string,
            "detail": _optional_string,
        },
    ),
    "queue": (
        RUNNER,
        {
            "action": _enum(*_QUEUE_ACTIONS),
            "tenant": _string,
            "depth": _is_int,
        },
    ),
    "breaker": (
        RUNNER,
        {
            "state": _enum(*_BREAKER_STATES),
            "failures": _is_int,
        },
    ),
    "sink_degraded": (
        RUNNER,
        {
            "path": _string,
            "error": _string,
        },
    ),
}

_ENVELOPE = ("event", "cat", "v")


def validate_event(obj: object) -> dict:
    """Check one decoded trace line against the event schema.

    Returns the event unchanged on success; raises
    :class:`~repro.errors.ConfigurationError` describing the first
    violation otherwise. Validation is strict: unknown events, missing
    fields, extra fields, and type mismatches are all rejected.
    """
    if not isinstance(obj, dict):
        raise ConfigurationError(
            f"trace event must be an object, got {type(obj).__name__}"
        )
    name = obj.get("event")
    if name not in EVENT_SCHEMAS:
        raise ConfigurationError(f"unknown trace event {name!r}")
    category, fields = EVENT_SCHEMAS[name]
    if obj.get("cat") != category:
        raise ConfigurationError(
            f"event {name!r} must have cat={category!r}, got {obj.get('cat')!r}"
        )
    if obj.get("v") != SCHEMA_VERSION:
        raise ConfigurationError(
            f"event {name!r} has schema version {obj.get('v')!r}, "
            f"expected {SCHEMA_VERSION}"
        )
    expected = set(_ENVELOPE) | set(fields)
    actual = set(obj)
    missing = expected - actual
    if missing:
        raise ConfigurationError(f"event {name!r} is missing fields {sorted(missing)}")
    extra = actual - expected
    if extra:
        raise ConfigurationError(f"event {name!r} has unknown fields {sorted(extra)}")
    for field, check in fields.items():
        if not check(obj[field]):
            raise ConfigurationError(
                f"event {name!r} field {field!r} has invalid value {obj[field]!r}"
            )
    return obj


def validate_trace_file(path: Union[str, Path]) -> int:
    """Validate every line of a JSONL trace; returns the event count.

    Raises :class:`~repro.errors.ConfigurationError` (with the line
    number) on the first malformed or schema-violating line.
    """
    count = 0
    with Path(path).open("r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as error:
                raise ConfigurationError(
                    f"{path}:{line_no}: not valid JSON ({error})"
                ) from error
            try:
                validate_event(obj)
            except ConfigurationError as error:
                raise ConfigurationError(f"{path}:{line_no}: {error}") from error
            count += 1
    return count
