"""Exception types shared across the :mod:`repro` package.

The bottom half is the *failure taxonomy* of the supervised grid
executor (see ``docs/ROBUSTNESS.md``): every way a grid task can fail
maps to exactly one :class:`TaskError` subclass, so retry policies,
failure manifests, and telemetry all speak the same vocabulary.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "ReproError",
    "ConfigurationError",
    "WorkloadError",
    "SimulationError",
    "TaskError",
    "TaskTimeout",
    "WorkerCrash",
    "InvariantViolation",
    "GridExecutionError",
    "GridInterrupted",
    "FAILURE_REASONS",
    "classify_failure",
]


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(ReproError):
    """A configuration value is out of its legal range or inconsistent."""


class WorkloadError(ReproError):
    """A workload definition is invalid (unknown benchmark, bad stream...)."""


class SimulationError(ReproError):
    """The simulator reached an inconsistent internal state."""


# ---------------------------------------------------------------------------
# Failure taxonomy of the supervised grid executor
# ---------------------------------------------------------------------------


class TaskError(ReproError):
    """One supervised grid task failed (base of the failure taxonomy).

    ``reason`` is the stable machine-readable classification used in
    failure manifests and ``task_retry``/``task_failed`` trace events;
    each concrete subclass pins one value.
    """

    reason: str = "error"


class TaskTimeout(TaskError):
    """A task exceeded its wall-clock budget and was terminated.

    The timeout protects the *supervisor* from hung workers; it never
    feeds into simulation results (which observe only simulated
    cycles), so a timed-out-and-retried task still produces bit-
    identical output.
    """

    reason = "timeout"


class WorkerCrash(TaskError):
    """A worker process died without reporting a result.

    Covers hard crashes (segfault, ``os._exit``, OOM kill) -- anything
    that would surface as ``BrokenProcessPool``/a nonzero exitcode. The
    supervisor respawns a fresh process for the retry.
    """

    reason = "crash"


class InvariantViolation(TaskError):
    """A task returned a result that violates a structural invariant
    (non-finite floats, impossible counters)."""

    reason = "invariant"


#: Stable failure classifications (manifest + telemetry vocabulary).
FAILURE_REASONS = frozenset(("timeout", "crash", "invariant", "error"))


def classify_failure(error: BaseException) -> str:
    """The taxonomy reason string for an arbitrary task exception."""
    if isinstance(error, TaskError):
        return error.reason
    return "error"


class GridExecutionError(ReproError):
    """A grid execution ended with failed tasks (``--on-failure=abort``).

    Carries the partial :class:`~repro.experiments.runner.GridOutcome`
    (everything that did complete, plus the failure manifest) so
    callers can persist finished work even when aborting.
    """

    def __init__(self, message: str, outcome: Optional[object] = None) -> None:
        super().__init__(message)
        self.outcome = outcome


class GridInterrupted(GridExecutionError):
    """A grid execution was interrupted (SIGINT/SIGTERM) and drained.

    In-flight tasks were allowed to finish and were journaled; the
    carried outcome holds everything completed before the interrupt.
    """
