"""Deterministic fault injection for the supervised grid executor.

The fault-tolerance layer (``docs/ROBUSTNESS.md``) is only trustworthy
if its failure paths are exercised on purpose. This package provides an
ambient, deterministic :class:`FaultPlan` -- mirroring the
``ExecutionSettings``/``tracing()`` ambient-context pattern -- that
injects failures at *chosen task indices*:

* ``crash``   -- the worker process running the task dies without
  reporting a result (``os._exit``), exactly like a segfault/OOM kill;
* ``hang``    -- the task blocks far past any sane deadline, exercising
  the supervisor's wall-clock timeout + terminate path;
* ``nan``     -- the task's result comes back with a non-finite float,
  exercising the supervisor's invariant check;
* ``corrupt`` -- the on-disk result-cache entry of a chosen *pair
  index* is overwritten with garbage after being stored, exercising
  quarantine-on-load.

The simulation *service* (``python -m repro serve``) adds three
service-level kinds on the same plan:

* ``storm``   -- a worker *crash storm*: every first attempt of tasks
  ``index .. index+count-1`` dies, exercising the circuit breaker and
  retry backoff under a burst (retries still recover each task);
* ``stall``   -- a *slow client*: request handling for request indices
  ``index .. index+count-1`` is delayed, exercising per-connection
  isolation (other tenants' requests must not queue behind it);
* ``jtear``   -- a *torn journal append*: writes ``index ..
  index+count-1`` of the job journal first land truncated mid-line
  (as if power failed inside ``write(2)``), exercising the writer's
  verify-and-repair path and the loader's torn-line tolerance.

Injection is keyed by ``(kind, task index, attempt)`` and nothing else:
no randomness, no wall clock, no dependence on the workload seed, so a
faulted run is exactly reproducible. For the classic kinds a fault
fires on the first ``count`` attempts of its task (default 1), which is
what lets a retry budget *recover*: ``crash@3`` fails task 3 once, and
the retry succeeds. For the service kinds (``storm``/``stall``/
``jtear``) ``count`` is instead the *width of the index range* the
fault covers, and only first attempts are hit.

Spec grammar (``--inject-faults``)::

    spec    := entry ("," entry)*
    entry   := kind "@" index ("*" count)?
    kind    := "crash" | "hang" | "nan" | "corrupt"
             | "storm" | "stall" | "jtear"

e.g. ``crash@2,hang@5,nan@7*2,corrupt@1`` or ``storm@0*3,jtear@1``.
Indices for ``crash``/``hang``/``nan`` refer to the deterministic
supervised-task order (single-thread baselines first, then every
(pair, level) SOE task); ``corrupt`` indices refer to the pair's
position in the grid; ``storm`` indices refer to service job dispatch
order, ``stall`` to request arrival order, and ``jtear`` to journal
append order.
"""

from __future__ import annotations

import hashlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import Iterator, Optional, Union

from repro.errors import ConfigurationError, ReproError

__all__ = [
    "FAULT_KINDS",
    "RANGE_KINDS",
    "CRASH_EXIT_CODE",
    "FaultSpec",
    "FaultPlan",
    "NO_FAULTS",
    "parse_fault_plan",
    "current_plan",
    "set_plan",
    "fault_injection",
]

#: Injection kinds understood by the plan (and the spec grammar).
FAULT_KINDS = frozenset(
    ("crash", "hang", "nan", "corrupt", "storm", "stall", "jtear")
)

#: Kinds whose ``count`` widens the covered *index range* (service
#: chaos) instead of repeating across attempts (classic kinds).
RANGE_KINDS = frozenset(("storm", "stall", "jtear"))

#: Exit code of an injected worker crash (BSD ``EX_SOFTWARE``); chosen
#: to be visibly distinct from signal deaths (negative exitcodes).
CRASH_EXIT_CODE = 70

#: How long an injected hang blocks. Any sane ``--task-timeout`` fires
#: long before this; the supervisor terminates the sleeping worker.
_HANG_SECONDS = 3600.0

#: How long an injected slow-client stall delays one request. Short
#: enough to keep chaos tests fast, long enough that an accidentally
#: serialized server would visibly delay the *other* tenant too.
_STALL_SECONDS = 0.2


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: ``kind`` at task/pair ``index``.

    The fault fires on attempts ``1..count`` of that task and never
    again, so a retry budget ``>= count`` recovers the task. For the
    service-level range kinds (:data:`RANGE_KINDS`) ``count`` is
    instead the width of the covered index range
    ``index .. index+count-1`` and only first attempts fire.
    """

    kind: str
    index: int
    count: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; "
                f"choose from {sorted(FAULT_KINDS)}"
            )
        if self.index < 0:
            raise ConfigurationError("fault index must be >= 0")
        if self.count < 1:
            raise ConfigurationError("fault count must be >= 1")

    @property
    def label(self) -> str:
        suffix = f"*{self.count}" if self.count != 1 else ""
        return f"{self.kind}@{self.index}{suffix}"


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of faults to inject into one grid execution.

    ``seed`` only varies the *bytes* written by cache corruption (so
    corruption tests can cover several garbage patterns); which faults
    fire where is a pure function of the specs.
    """

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    @property
    def active(self) -> bool:
        return bool(self.specs)

    def _fires(self, kind: str, index: int, attempt: int) -> bool:
        return any(
            spec.kind == kind and spec.index == index and attempt <= spec.count
            for spec in self.specs
        )

    def _covers(self, kind: str, index: int) -> bool:
        """Range-kind check: is ``index`` inside any ``kind`` burst?"""
        return any(
            spec.kind == kind and spec.index <= index < spec.index + spec.count
            for spec in self.specs
        )

    # -- worker-side hooks (called inside the worker process) -----------
    def on_task_start(self, index: int, attempt: int) -> None:
        """Crash or hang the executing worker if the plan says so."""
        if self._fires("crash", index, attempt):
            os._exit(CRASH_EXIT_CODE)
        if attempt == 1 and self._covers("storm", index):
            os._exit(CRASH_EXIT_CODE)
        if self._fires("hang", index, attempt):
            time.sleep(_HANG_SECONDS)

    def mutate_result(self, index: int, attempt: int, result: object) -> object:
        """Poison the task's result with a NaN if the plan says so."""
        if self._fires("nan", index, attempt):
            return _poison(result)
        return result

    # -- service-side hooks (called inside the serve process) -----------
    def stall_seconds(self, request_index: int) -> float:
        """Slow-client delay for the ``request_index``-th request."""
        if self._covers("stall", request_index):
            return _STALL_SECONDS
        return 0.0

    def tears_write(self, write_index: int) -> bool:
        """Should the ``write_index``-th journal append land torn?"""
        return self._covers("jtear", write_index)

    # -- parent-side hooks ----------------------------------------------
    def corrupts_cache(self, pair_index: int) -> bool:
        """Should the stored cache entry of this pair be corrupted?"""
        return self._fires("corrupt", pair_index, 1)

    def corrupt_file(self, path: Union[str, Path]) -> None:
        """Deterministically overwrite ``path``'s head with garbage."""
        target = Path(path)
        garbage = hashlib.sha256(f"repro-fault-{self.seed}".encode()).digest()
        data = target.read_bytes()
        target.write_bytes(garbage + data[len(garbage):])


def _poison(result: object) -> object:
    """``result`` with one float field replaced by NaN.

    Frozen result dataclasses validate some fields at construction
    (e.g. ``SoeRunResult.cycles > 0``), so fields are tried in order
    until one accepts the NaN; non-dataclass results degrade to a bare
    ``nan``.
    """
    nan = float("nan")
    if is_dataclass(result) and not isinstance(result, type):
        for field in fields(result):
            if not isinstance(getattr(result, field.name), float):
                continue
            try:
                return replace(result, **{field.name: nan})
            except (ReproError, TypeError, ValueError):
                continue
    return nan


NO_FAULTS = FaultPlan()

_AMBIENT: FaultPlan = NO_FAULTS


def current_plan() -> FaultPlan:
    """The ambient fault plan (inactive by default)."""
    return _AMBIENT


def set_plan(plan: Optional[FaultPlan]) -> FaultPlan:
    """Install a new ambient plan (None = no faults); returns the old."""
    global _AMBIENT
    previous = _AMBIENT
    _AMBIENT = plan if plan is not None else NO_FAULTS
    return previous


@contextmanager
def fault_injection(plan: Optional[FaultPlan]) -> Iterator[FaultPlan]:
    """Scope an ambient fault plan to a ``with`` block.

    Workers forked inside the block inherit the plan, which is how the
    injection hooks reach the worker processes without any plumbing.
    """
    previous = set_plan(plan)
    try:
        yield current_plan()
    finally:
        set_plan(previous)


def parse_fault_plan(text: Optional[str], seed: int = 0) -> FaultPlan:
    """Parse an ``--inject-faults`` spec string into a plan.

    Returns :data:`NO_FAULTS` for None/empty input; raises
    :class:`~repro.errors.ConfigurationError` on malformed entries.
    """
    if text is None or not text.strip():
        return NO_FAULTS
    specs = []
    for raw in text.split(","):
        entry = raw.strip()
        if not entry:
            continue
        kind, sep, location = entry.partition("@")
        if not sep:
            raise ConfigurationError(
                f"malformed fault entry {entry!r}: expected kind@index"
                "[*count], e.g. crash@3 or hang@5*2"
            )
        index_text, star, count_text = location.partition("*")
        try:
            index = int(index_text)
            count = int(count_text) if star else 1
        except ValueError:
            raise ConfigurationError(
                f"malformed fault entry {entry!r}: index and count must "
                "be integers"
            ) from None
        specs.append(FaultSpec(kind=kind.strip(), index=index, count=count))
    return FaultPlan(specs=tuple(specs), seed=seed)
