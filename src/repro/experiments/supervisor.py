"""Supervised task execution: persistent workers with timeout and retry.

The grid's former ``pool.map`` had no answer to a crashed, hung, or
lying worker: one bad task aborted (or wedged) the whole sweep. This
module replaces it with one executor, :class:`TaskPool`: long-lived
worker processes, each serving one task at a time over its own pipe,
watched by the parent:

* **Timeout** -- each attempt gets a wall-clock budget
  (``task_timeout``); a hung worker is terminated and the task
  reclassified as :class:`~repro.errors.TaskTimeout`. The clock guards
  only the supervisor -- results never observe it, so a timed-out-and-
  retried task is still bit-identical.
* **Retry** -- every failure is retried up to ``retries`` times with
  deterministic, attempt-counted accounting. An optional exponential
  backoff (``retry_backoff``) delays each retry by a deterministic,
  *hashed-jitter* amount -- a pure function of ``(task index,
  attempt)`` (:func:`backoff_delay`), never of the wall clock or a
  global RNG -- so retry schedules are reproducible while still
  decorrelating storms of failing tasks. Backoff only decides *when* a
  retry launches, never what it computes: results stay bit-identical
  with any backoff.
  A worker that crashes, hangs past its timeout, or reports garbage
  is killed and respawned before the retry.
* **Classification** -- failures map onto the typed taxonomy in
  :mod:`repro.errors` (``TaskTimeout``/``WorkerCrash``/
  ``InvariantViolation``/generic task errors) and are reported as
  ``task_retry``/``task_failed`` trace events and in the run's failure
  manifest.
* **Invariant check** -- results are structurally validated (finite
  floats all the way down) before being accepted, so a worker that
  *returns* garbage is treated exactly like one that crashed.
* **Drain** -- SIGINT/SIGTERM request a drain: no attempt starts
  after it, in-flight tasks finish and are journaled (one that fails
  now is a failure, not a retry), and the run reports itself
  interrupted instead of dying mid-write. A second SIGINT kills
  in-flight work immediately.

Determinism: results are collected by task index, every task is a pure
function of its spec, and the supervisor only decides *whether* and
*when* a task runs -- never what it computes -- so any schedule
(including one with retries) yields bit-identical results.

:class:`Supervisor` is the batch front end the grid uses: it hands
every task to a :class:`TaskPool` and pumps it until every task
settled. A free worker picks its next task by :func:`pick_task`: in
index order, or, when the caller gives affinity keys, the next task of
the group it is working on, so tasks that read the same recorded
inputs run on one worker. With one job, no timeout, and no
process-level fault plan it runs each task inline instead -- no worker
at all, the zero-overhead path for serial runs. The simulation
service drives the same :class:`TaskPool` directly, one submitted job
at a time, in FIFO order.

Worker messages travel as length-prefixed frames (one
``send_bytes`` of a ``pickle.HIGHEST_PROTOCOL`` payload), so a reader
observes either a complete message or a torn frame -- and a torn frame
raises immediately (``OSError``/``EOFError``), classifying as a
:class:`~repro.errors.WorkerCrash` instead of hanging the supervisor.

This module is wall-clock exempt (RL002) alongside the runner: its
clocks bound supervision (timeouts, liveness polling) and never feed
simulation results.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import multiprocessing.connection
import os
import pickle
import signal
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, fields, is_dataclass
from typing import (
    AbstractSet,
    Callable,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro import faults
from repro.errors import (
    ConfigurationError,
    InvariantViolation,
    classify_failure,
)
from repro.telemetry import RUNNER as _TRACE_RUNNER
from repro.telemetry import current_sink
from repro.telemetry.events import task_failed, task_retry

__all__ = [
    "SupervisionPolicy",
    "TaskFailure",
    "SupervisedRun",
    "Supervisor",
    "TaskPool",
    "PoolEvent",
    "backoff_delay",
    "check_invariants",
    "pick_task",
]

#: How long the supervisor blocks waiting for worker messages before
#: re-checking deadlines and drain requests.
_POLL_SECONDS = 0.2

#: Grace given to ``terminate()`` before escalating to ``kill()``.
_TERM_GRACE_SECONDS = 2.0


@dataclass(frozen=True)
class SupervisionPolicy:
    """How failures are bounded: per-attempt timeout, retries, backoff."""

    #: Wall-clock seconds one attempt may run (None = no timeout).
    task_timeout: Optional[float] = None
    #: Extra attempts after the first failure (0 = fail fast).
    retries: int = 2
    #: Base seconds of the deterministic exponential retry backoff
    #: (0 = respawn immediately, the historical behavior). Attempt
    #: ``n``'s retry is delayed by ``backoff_delay(retry_backoff, n,
    #: index=task_index)``.
    retry_backoff: float = 0.0

    def __post_init__(self) -> None:
        # NaN fails every comparison and inf never comes due, so both
        # are refused: None is the one way to say "no timeout".
        if self.task_timeout is not None and not (
            math.isfinite(self.task_timeout) and self.task_timeout > 0
        ):
            raise ConfigurationError(
                "task timeout must be finite positive seconds"
            )
        if self.retries < 0:
            raise ConfigurationError("retries must be >= 0")
        if not (math.isfinite(self.retry_backoff) and self.retry_backoff >= 0):
            raise ConfigurationError(
                "retry backoff must be finite seconds >= 0"
            )

    @property
    def max_attempts(self) -> int:
        return self.retries + 1

    def delay_for(self, index: int, attempt: int) -> float:
        """Backoff before the retry that follows failed ``attempt``."""
        return backoff_delay(self.retry_backoff, attempt, index=index)


def backoff_delay(base: float, attempt: int, *, index: int = 0) -> float:
    """Deterministic exponential backoff with hashed jitter (seconds).

    The delay before the retry following failed ``attempt`` (1-based)
    doubles per attempt and carries an *equal-jitter* factor in
    ``[0.5, 1.0)`` derived from ``sha256(index, attempt)`` --
    a pure function of its arguments, so retry schedules are exactly
    reproducible (no RNG state, no wall clock) while simultaneously
    failing tasks still spread out instead of thundering back in
    lockstep.
    """
    if base <= 0.0 or attempt < 1:
        return 0.0
    window = base * (2.0 ** (attempt - 1))
    # The fixed "-0-" field keeps every retry schedule byte-identical
    # to the one recorded when the string also carried a seed.
    digest = hashlib.sha256(
        f"repro-backoff-0-{index}-{attempt}".encode()
    ).digest()
    jitter = int.from_bytes(digest[:8], "big") / 2.0**64
    return window * (0.5 + 0.5 * jitter)


def pick_task(
    keys: Sequence[Hashable],
    own: Hashable,
    held: AbstractSet[Hashable],
) -> int:
    """Queue position of the task a free worker takes next.

    ``keys`` holds the pending tasks' affinity keys in queue order
    (None for an unkeyed task), ``own`` the key of the group the worker
    is working on (None before its first task), and ``held`` the keys
    of the groups other workers are working on. The worker takes, in
    order of preference:

    1. the first pending task of its own group;
    2. otherwise, the first pending task of a group no other worker
       holds;
    3. otherwise, the head of the queue (the tail steal that keeps
       every worker busy).

    An unkeyed task belongs to no group, so it satisfies rule 2 where
    it stands: a queue without keys is served first in, first out.
    """
    if own is not None:
        for position, key in enumerate(keys):
            if key == own:
                return position
    for position, key in enumerate(keys):
        if key is None or key not in held:
            return position
    return 0


@dataclass(frozen=True)
class TaskFailure:
    """One task that exhausted its retry budget (manifest entry)."""

    index: int
    kind: str
    label: str
    reason: str  #: one of :data:`repro.errors.FAILURE_REASONS`
    message: str
    attempts: int

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "kind": self.kind,
            "label": self.label,
            "reason": self.reason,
            "message": self.message,
            "attempts": self.attempts,
        }


@dataclass
class SupervisedRun:
    """Everything one supervised execution produced."""

    #: task index -> raw result (only indices that succeeded)
    results: dict
    failures: List[TaskFailure]
    #: indices that never ran because a drain was requested
    skipped: List[int]
    interrupted: bool = False
    #: total retry attempts consumed across all tasks
    retries: int = 0


def check_invariants(value: object, _path: str = "result") -> None:
    """Validate a task result: every float is finite, recursively.

    Raises :class:`~repro.errors.InvariantViolation` naming the first
    offending field. Simulation results are counters and rates -- a NaN
    or infinity anywhere means the producing run was corrupt, and
    accepting it would poison every figure derived from the grid.
    """
    if isinstance(value, bool) or value is None or isinstance(value, (str, int)):
        return
    if isinstance(value, float):
        if not math.isfinite(value):
            raise InvariantViolation(
                f"non-finite value {value!r} at {_path}"
            )
        return
    if is_dataclass(value) and not isinstance(value, type):
        for field in fields(value):
            check_invariants(
                getattr(value, field.name), f"{_path}.{field.name}"
            )
        return
    if isinstance(value, (list, tuple)):
        for position, element in enumerate(value):
            check_invariants(element, f"{_path}[{position}]")
        return
    if isinstance(value, dict):
        for key, element in value.items():
            check_invariants(element, f"{_path}[{key!r}]")
        return


def _default_descriptor(item: object) -> Tuple[str, str]:
    return "task", type(item).__name__


def _send_frame(
    conn: multiprocessing.connection.Connection, message: object
) -> None:
    """Write one length-prefixed message frame.

    ``send_bytes`` prefixes the payload with its size, so the reader
    either receives the complete pickle or fails loudly mid-frame; the
    payload itself is serialized once with ``pickle.HIGHEST_PROTOCOL``
    (the default ``Connection.send`` re-pickles at the legacy default
    protocol, which is markedly slower for large results).
    """
    conn.send_bytes(pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL))


def _recv_frame(conn: multiprocessing.connection.Connection) -> object:
    """Read one framed message; raises ``EOFError`` on a clean close
    and ``OSError`` on a frame torn by a mid-write crash."""
    return pickle.loads(conn.recv_bytes())


#: Worker-message failures that classify as a crash: a clean EOF (the
#: worker died before writing), a torn frame (it died mid-write), or a
#: frame whose bytes do not decode (it died scribbling).
_FRAME_ERRORS = (EOFError, OSError, pickle.UnpicklingError)


def _pool_worker_main(
    conn: multiprocessing.connection.Connection,
    parent_end: multiprocessing.connection.Connection,
    call: Callable,
) -> None:
    """Entry point of one persistent pool worker.

    Serves ``(index, attempt, item)`` request frames until the parent
    sends the ``None`` shutdown frame (or closes the pipe), answering
    each with exactly one message: ``("ok", result)`` or ``("error",
    reason, message, traceback)``. Dying without reporting *is* the
    crash signal the parent watches for. The fault-plan hooks run per
    served task, so an injected crash or hang kills or wedges this
    worker -- the parent detects it, respawns a worker, and retries the
    task it held. SIGINT is ignored so a terminal Ctrl-C (delivered to
    the whole foreground process group) lets the parent drain in-flight
    work instead of killing it.

    ``parent_end`` is the parent's side of this worker's pipe, inherited
    through the fork; closing it here is what lets a parent that dies
    without a shutdown frame (SIGKILL) end this worker, instead of
    leaving it blocked on a pipe it holds open itself.
    """
    parent_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            request = _recv_frame(conn)
        except _FRAME_ERRORS:  # parent gone; nothing left to serve
            os._exit(0)
        if request is None:
            break
        index, attempt, item = request
        try:
            plan = faults.current_plan()
            plan.on_task_start(index, attempt)
            result = plan.mutate_result(index, attempt, call(item))
            message: tuple = ("ok", result)
        except BaseException as error:  # the parent does the classifying
            message = (
                "error",
                classify_failure(error),
                f"{type(error).__name__}: {error}",
                traceback.format_exc(),
            )
        try:
            _send_frame(conn, message)
        except (OSError, ValueError):  # parent gone / pipe closed
            os._exit(1)
    try:
        conn.close()
    finally:
        os._exit(0)


@dataclass
class _PoolWorker:
    """One persistent pool worker and the task it currently holds.

    ``index``/``item``/``attempt``/``deadline`` describe the in-flight
    attempt and are cleared when the worker goes idle; ``group`` is the
    affinity key of the last task it was sent, and stays.
    """

    process: multiprocessing.Process
    conn: multiprocessing.connection.Connection
    index: int = -1
    item: object = None
    attempt: int = 0
    deadline: Optional[float] = None
    group: Hashable = None

    @property
    def busy(self) -> bool:
        return self.attempt > 0

    def clear(self) -> None:
        self.index = -1
        self.item = None
        self.attempt = 0
        self.deadline = None


class Supervisor:
    """Runs indexed tasks under a :class:`SupervisionPolicy`.

    ``tasks`` is a sequence of ``(index, item)`` pairs -- indices are
    caller-owned (the grid keeps its deterministic decomposition order
    stable across resumes) and are the coordinates fault injection and
    checkpoint records use.

    ``affinity`` maps a task index to its affinity key. Without it,
    pooled tasks launch in index order; with it, a free worker prefers
    the tasks of the group it is working on (see :func:`pick_task`).
    Either way indices, checkpoint keys and fault coordinates stay as
    they are: only the order of launches changes.

    Isolation is automatic: tasks run on the persistent supervised
    workers of a :class:`TaskPool` when concurrency, a timeout, or an
    active process-level fault plan demands it, and inline (zero
    overhead, exceptions classified but never retried -- pure tasks
    fail deterministically) otherwise. Where a task runs never changes
    what it computes.
    """

    def __init__(
        self,
        call: Callable,
        tasks: Sequence[Tuple[int, object]],
        *,
        jobs: int = 1,
        policy: Optional[SupervisionPolicy] = None,
        descriptor: Callable[[object], Tuple[str, str]] = _default_descriptor,
        validate: Callable[[object], None] = check_invariants,
        on_result: Optional[Callable[[int, object, object], None]] = None,
        affinity: Optional[Callable[[int], Hashable]] = None,
    ) -> None:
        if jobs < 1:
            raise ConfigurationError("jobs must be a positive process count")
        self._call = call
        self._tasks = list(tasks)
        self._affinity = affinity
        self._jobs = jobs
        self._policy = policy if policy is not None else SupervisionPolicy()
        self._descriptor = descriptor
        self._validate = validate
        self._on_result = on_result
        self._drain = False
        self._hard_abort = False
        self._signals = 0
        #: the pool a process-isolated run is executing on
        self._core: Optional[TaskPool] = None

    # -- external control ------------------------------------------------

    def request_drain(self) -> None:
        """Stop launching new tasks; let in-flight tasks finish."""
        self._drain = True
        if self._core is not None:
            # A plain store, so safe from a signal handler (``wake()``
            # is not: its lock is not reentrant). The pump's wait is
            # capped at ``_POLL_SECONDS``, which bounds the reaction.
            self._core._draining = True

    def _on_signal(self, signum: int, frame: object) -> None:
        self._signals += 1
        self.request_drain()
        if self._signals >= 2:
            self._hard_abort = True

    # -- execution -------------------------------------------------------

    def run(self) -> SupervisedRun:
        """Execute every task; returns results, failures, and skips."""
        run = SupervisedRun(results={}, failures=[], skipped=[])
        if not self._tasks:
            return run
        use_processes = (
            self._jobs > 1
            or self._policy.task_timeout is not None
            or any(
                spec.kind in ("crash", "hang", "nan")
                for spec in faults.current_plan().specs
            )
        )
        installed = self._install_signal_handlers()
        try:
            if use_processes:
                self._run_pooled(run)
            else:
                self._run_inline(run)
        finally:
            self._restore_signal_handlers(installed)
        run.interrupted = self._drain and bool(run.skipped or self._signals)
        return run

    def _install_signal_handlers(self) -> list:
        if threading.current_thread() is not threading.main_thread():
            return []
        previous = []
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous.append((signum, signal.signal(signum, self._on_signal)))
        return previous

    def _restore_signal_handlers(self, previous: list) -> None:
        for signum, handler in previous:
            signal.signal(signum, handler)

    # -- inline mode -----------------------------------------------------

    def _run_inline(self, run: SupervisedRun) -> None:
        for index, item in self._tasks:
            if self._drain:
                run.skipped.append(index)
                continue
            try:
                result = self._call(item)
                self._validate(result)
            except Exception as error:  # classified, surfaces in manifest
                self._record_failure(
                    run,
                    index,
                    item,
                    attempt=1,
                    reason=classify_failure(error),
                    message=f"{type(error).__name__}: {error}",
                )
                continue
            self._accept(run, index, item, result)

    # -- process isolation (the TaskPool core) ----------------------------

    def _run_pooled(self, run: SupervisedRun) -> None:
        """Batch loop over the pool: queue every task at once, so a free
        worker picks from all of them, and pump until every task
        settled."""
        items = dict(self._tasks)

        def settle(event: PoolEvent) -> None:
            if event.kind == "done":
                self._accept(run, event.index, items[event.index],
                             event.result)
            elif event.kind == "retry":
                run.retries += 1
            elif event.failure is not None:
                run.failures.append(event.failure)

        core = TaskPool(
            self._call,
            jobs=self._jobs,
            policy=self._policy,
            descriptor=self._descriptor,
            validate=self._validate,
        )
        core._on_launch = self._launch
        core._draining = self._drain
        for index, item in self._tasks:
            key = None if self._affinity is None else self._affinity(index)
            core._enqueue(index, item, key=key)
        self._core = core
        try:
            while True:
                if self._hard_abort:
                    core._kill_in_flight(
                        settle, "killed by repeated interrupt"
                    )
                if self._drain:
                    # Nothing starts after a drain: queued tasks and
                    # retries are skipped.
                    run.skipped.extend(
                        task.index for task in core._pending
                    )
                    run.skipped.extend(
                        task.index for task in core._delayed
                    )
                    core._pending.clear()
                    core._delayed.clear()
                if core.idle:
                    break
                core._pump(_POLL_SECONDS, settle)
        finally:
            self._core = None
            core.close()
        run.skipped.sort()

    def _launch(self, index: int, item: object, attempt: int) -> None:
        """Fires once per attempt, just before its request frame is
        sent -- the seam timing instrumentation (``perfbench``) wraps."""

    # -- accounting ------------------------------------------------------

    def _accept(
        self, run: SupervisedRun, index: int, item: object, result: object
    ) -> None:
        run.results[index] = result
        if self._on_result is not None:
            self._on_result(index, item, result)

    def _record_failure(
        self,
        run: SupervisedRun,
        index: int,
        item: object,
        *,
        attempt: int,
        reason: str,
        message: str,
    ) -> None:
        kind, label = self._descriptor(item)
        sink = current_sink()
        if sink.wants(_TRACE_RUNNER):
            sink.emit(task_failed(kind, label, attempt, reason))
        run.failures.append(
            TaskFailure(
                index=index,
                kind=kind,
                label=label,
                reason=reason,
                message=message,
                attempts=attempt,
            )
        )


# ---------------------------------------------------------------------------
# Incremental pool: supervision for long-running callers (the service)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PoolEvent:
    """One observable outcome of a :class:`TaskPool` pump pass.

    ``kind`` is ``"done"`` (``result`` holds the validated value),
    ``"failed"`` (``failure`` holds the manifest entry), or ``"retry"``
    (the task is being retried; ``attempt`` is the upcoming attempt and
    ``backoff_s`` the deterministic delay before it launches).
    """

    kind: str
    index: int
    result: object = None
    failure: Optional[TaskFailure] = None
    attempt: int = 0
    reason: str = ""
    backoff_s: float = 0.0


@dataclass
class _PoolTask:
    """One queued/delayed TaskPool entry (with per-task timeout and
    affinity key)."""

    index: int
    item: object
    attempt: int
    timeout: Optional[float]
    ready_at: float = 0.0
    seq: int = 0
    key: Hashable = None


class TaskPool:
    """Supervised persistent pool with *incremental* task submission.

    The one process executor: :class:`Supervisor` drives it as a batch
    (returns when every task settled), while a
    long-running service whose work arrives one HTTP request at a time
    drives it directly. Either way the supervision contract is the same
    (persistent workers served length-prefixed frames, per-attempt
    wall-clock timeouts, bounded deterministic retries with
    hashed-jitter backoff, crash/invariant classification through the
    :mod:`repro.errors` taxonomy, ``task_retry``/``task_failed``
    telemetry, ambient fault-plan hooks in the workers) behind an
    event-pumped API:

    * :meth:`submit` enqueues one ``(index, item)`` task, optionally
      with a per-task timeout override (how job deadlines propagate
      down to attempts);
    * :meth:`pump` performs one scheduling + poll pass and returns the
      :class:`PoolEvent` outcomes that settled during it, blocking until
      a worker frame arrives, a retry backoff or attempt deadline comes
      due, :meth:`wake` is called, or the wait elapses;
    * :meth:`wake` cuts a blocked :meth:`pump` short -- the one method
      safe to call from another thread;
    * :meth:`close` shuts the workers down.

    A free worker takes the pending task :func:`pick_task` names: the
    next one of the affinity group it is working on, else one of a group
    no other worker holds, else the head of the queue. Tasks without an
    affinity key (the service's, and unkeyed batches) run first in,
    first out; a retry keeps its task's key and joins the queue's tail.

    The pool only decides whether and when a task runs, never what it
    computes -- a retried task is bit-identical to one that succeeded
    first try.
    """

    def __init__(
        self,
        call: Callable,
        *,
        jobs: int = 1,
        policy: Optional[SupervisionPolicy] = None,
        descriptor: Callable[[object], Tuple[str, str]] = _default_descriptor,
        validate: Callable[[object], None] = check_invariants,
    ) -> None:
        if jobs < 1:
            raise ConfigurationError("jobs must be a positive process count")
        self._call = call
        self._jobs = jobs
        self._policy = policy if policy is not None else SupervisionPolicy()
        self._descriptor = descriptor
        self._validate = validate
        self._pending: deque = deque()
        self._delayed: List[_PoolTask] = []
        self._workers: List[_PoolWorker] = []
        #: per-index timeout overrides travel with the task entry, but a
        #: retried in-flight task needs them again -- keep them here.
        self._timeouts: dict = {}
        self._seq = 0
        self._closed = False
        #: A batch drain (see :meth:`Supervisor.request_drain`): no
        #: attempt starts, and an attempt that fails is final. The
        #: service instead drains by letting the pool go idle.
        self._draining = False
        #: Called with ``(index, item, attempt)`` just before an
        #: attempt's request frame is sent.
        self._on_launch: Optional[Callable[[int, object, int], None]] = None
        # Self-pipe: wake() writes a byte so a pump blocked on worker
        # conns returns early. The lock keeps a wake from another thread
        # off fds that close() has released (and the OS may reuse).
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        os.set_blocking(self._wake_w, False)
        self._wake_lock = threading.Lock()

    # -- introspection -----------------------------------------------------

    @property
    def pending(self) -> int:
        """Tasks queued or waiting out a retry backoff."""
        return len(self._pending) + len(self._delayed)

    @property
    def in_flight(self) -> int:
        return sum(1 for worker in self._workers if worker.busy)

    @property
    def idle(self) -> bool:
        return self.pending == 0 and self.in_flight == 0

    def alive_workers(self) -> int:
        """Live worker processes (the /readyz liveness signal)."""
        return sum(
            1 for worker in self._workers if worker.process.is_alive()
        )

    # -- submission ---------------------------------------------------------

    def submit(
        self, index: int, item: object, *, timeout: Optional[float] = None
    ) -> None:
        """Enqueue one task; ``timeout`` overrides the policy's
        per-attempt budget (a job deadline propagating down)."""
        if self._closed:
            raise ConfigurationError("task pool is closed")
        if timeout is not None and timeout <= 0:
            raise ConfigurationError("task timeout must be positive seconds")
        self._enqueue(index, item, timeout)

    # -- the pump ------------------------------------------------------------

    def pump(self, wait: float = 0.05) -> List[PoolEvent]:
        """One scheduling + poll pass; returns what settled during it.

        Blocks up to ``wait`` seconds -- less when a retry backoff or an
        attempt deadline comes due first -- until a busy worker's frame
        arrives or :meth:`wake` is called, so an idle pool costs no CPU.
        A pass that already settled events while assigning work returns
        at once.
        """
        if self._closed:
            raise ConfigurationError("task pool is closed")
        events: List[PoolEvent] = []
        self._pump(wait, events.append)
        return events

    def close(self) -> None:
        """Shut every worker down (idle ones gracefully)."""
        if self._closed:
            return
        self._closed = True
        for worker in list(self._workers):
            try:
                _send_frame(worker.conn, None)
            except (OSError, ValueError):
                pass
            self._kill(worker)
        self._workers.clear()
        with self._wake_lock:
            os.close(self._wake_r)
            os.close(self._wake_w)

    def wake(self) -> None:
        """Make a blocked (or the next) :meth:`pump` return early.

        The only method safe to call from another thread; a no-op once
        the pool is closed.
        """
        with self._wake_lock:
            if self._closed:
                return
            try:
                os.write(self._wake_w, b"\0")
            except BlockingIOError:
                pass  # pipe full: a wake-up is already pending

    def __enter__(self) -> "TaskPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- internals -----------------------------------------------------------

    def _enqueue(
        self,
        index: int,
        item: object,
        timeout: Optional[float] = None,
        key: Hashable = None,
    ) -> None:
        self._timeouts[index] = timeout
        self._pending.append(
            _PoolTask(index=index, item=item, attempt=1, timeout=timeout,
                      key=key)
        )

    def _pump(self, wait: float, settle: Callable[[PoolEvent], None]) -> None:
        """The scheduling + poll pass behind :meth:`pump`.

        Each outcome goes to ``settle`` the moment it is decided, so a
        drain requested while settling one worker's result already
        governs the next worker collected in the same pass.
        """
        self._release_due()
        if self._assign_idle(settle):
            return
        busy = [worker for worker in self._workers if worker.busy]
        wait_for = max(wait, 0.0)
        now = time.monotonic()
        for task in self._delayed:
            wait_for = min(wait_for, max(task.ready_at - now, 0.0))
        for worker in busy:
            if worker.deadline is not None:
                wait_for = min(wait_for, max(worker.deadline - now, 0.0))
        ready = self._wait([worker.conn for worker in busy], wait_for)
        now = time.monotonic()
        for worker in busy:
            if worker.conn in ready:
                self._collect(worker, settle)
            elif worker.deadline is not None and now >= worker.deadline:
                timeout = self._attempt_timeout(worker.index)
                self._retire(worker)
                self._retry_or_fail(
                    worker,
                    settle,
                    reason="timeout",
                    message=(
                        f"attempt {worker.attempt} exceeded the "
                        f"{timeout:g}s task timeout"
                    ),
                )
            elif not worker.process.is_alive():
                # Died between wait() and this check; a buffered result
                # frame is still collectable (collect-first contract).
                self._collect(worker, settle)

    def _kill_in_flight(
        self, settle: Callable[[PoolEvent], None], message: str
    ) -> None:
        """Kill every busy worker; under a drain each task it held
        settles as a ``crash`` failure."""
        for worker in [w for w in self._workers if w.busy]:
            self._retire(worker)
            self._retry_or_fail(
                worker, settle, reason="crash", message=message
            )

    def _wait(self, conns: list, timeout: float) -> list:
        """Block on ``conns`` plus the wake fd; consume any wake-up."""
        try:
            ready = multiprocessing.connection.wait(
                conns + [self._wake_r], timeout=timeout
            )
        except InterruptedError:  # pragma: no cover - signal during wait
            return []
        if self._wake_r in ready:
            try:
                while os.read(self._wake_r, 4096):
                    pass
            except BlockingIOError:
                pass
        return ready

    def _attempt_timeout(self, index: int) -> Optional[float]:
        override = self._timeouts.get(index)
        return override if override is not None else self._policy.task_timeout

    def _release_due(self) -> None:
        if not self._delayed:
            return
        now = time.monotonic()
        due = [task for task in self._delayed if task.ready_at <= now]
        if not due:
            return
        for task in sorted(due, key=lambda t: (t.ready_at, t.seq)):
            self._pending.append(task)
        self._delayed = [task for task in self._delayed if task not in due]

    def _assign_idle(self, settle: Callable[[PoolEvent], None]) -> bool:
        """Hand queued tasks to idle workers; True if a dispatch failed
        (its outcome already went to ``settle``)."""
        for worker in list(self._workers):
            # An idle worker that died between tasks held no work; just
            # reap it (a replacement spawns below if demand remains).
            if not worker.busy and not worker.process.is_alive():
                self._retire(worker)
        if self._draining:
            return False
        wanted = min(self._jobs, len(self._pending) + self.in_flight)
        while (
            sum(1 for w in self._workers if w.process.is_alive()) < wanted
        ):
            self._workers.append(self._spawn())
        settled = False
        for worker in list(self._workers):
            if not self._pending:
                break
            if worker.busy or not worker.process.is_alive():
                continue
            task = self._take(worker)
            if not self._dispatch(worker, task, settle):
                settled = True
        return settled

    def _take(self, worker: _PoolWorker) -> _PoolTask:
        """Remove and return the pending task ``worker`` runs next."""
        held = {
            other.group
            for other in self._workers
            if other is not worker and other.group is not None
        }
        position = pick_task(
            [task.key for task in self._pending], worker.group, held
        )
        task = self._pending[position]
        del self._pending[position]
        return task

    def _spawn(self) -> _PoolWorker:
        parent_conn, child_conn = multiprocessing.Pipe(duplex=True)
        process = multiprocessing.Process(
            target=_pool_worker_main,
            args=(child_conn, parent_conn, self._call),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _PoolWorker(process=process, conn=parent_conn)

    def _dispatch(
        self,
        worker: _PoolWorker,
        task: _PoolTask,
        settle: Callable[[PoolEvent], None],
    ) -> bool:
        """Send ``task`` to ``worker``; False if the worker was gone."""
        worker.index = task.index
        worker.item = task.item
        worker.attempt = task.attempt
        worker.group = task.key
        timeout = self._attempt_timeout(task.index)
        worker.deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        if self._on_launch is not None:
            self._on_launch(task.index, task.item, task.attempt)
        try:
            _send_frame(worker.conn, (task.index, task.attempt, task.item))
        except (OSError, ValueError):
            # Died between tasks; the attempt never started but counts,
            # keeping the retry budget a hard bound.
            self._retire(worker)
            self._retry_or_fail(
                worker,
                settle,
                reason="crash",
                message="pool worker died before accepting the task",
            )
            return False
        return True

    def _retire(self, worker: _PoolWorker) -> None:
        self._kill(worker)
        if worker in self._workers:
            self._workers.remove(worker)

    def _kill(self, worker: _PoolWorker) -> None:
        worker.conn.close()
        process = worker.process
        if process.is_alive():
            process.terminate()
            process.join(_TERM_GRACE_SECONDS)
            if process.is_alive():  # pragma: no cover - stuck in kernel
                process.kill()
                process.join()
        else:
            process.join()

    def _collect(
        self, worker: _PoolWorker, settle: Callable[[PoolEvent], None]
    ) -> None:
        try:
            message = _recv_frame(worker.conn)
        except _FRAME_ERRORS:
            message = None
        if message is None:
            exitcode = worker.process.exitcode
            self._retire(worker)
            self._retry_or_fail(
                worker,
                settle,
                reason="crash",
                message=(
                    f"pool worker died with exitcode {exitcode} "
                    "before reporting a result"
                ),
            )
            return
        if message[0] == "ok":
            result = message[1]
            try:
                self._validate(result)
            except InvariantViolation as error:
                self._retry_or_fail(
                    worker, settle, reason="invariant", message=str(error)
                )
                worker.clear()
                return
            index = worker.index
            worker.clear()
            self._timeouts.pop(index, None)
            settle(PoolEvent(kind="done", index=index, result=result))
            return
        _tag, reason, text, _trace = message
        self._retry_or_fail(worker, settle, reason=reason, message=text)
        worker.clear()

    def _retry_or_fail(
        self,
        worker: _PoolWorker,
        settle: Callable[[PoolEvent], None],
        *,
        reason: str,
        message: str,
    ) -> None:
        index, item, attempt = worker.index, worker.item, worker.attempt
        kind, label = self._descriptor(item)
        sink = current_sink()
        if attempt < self._policy.max_attempts and not self._draining:
            delay = self._policy.delay_for(index, attempt)
            if sink.wants(_TRACE_RUNNER):
                sink.emit(
                    task_retry(kind, label, attempt + 1, reason,
                               backoff_s=delay)
                )
            self._seq += 1
            retry = _PoolTask(
                index=index,
                item=item,
                attempt=attempt + 1,
                timeout=self._timeouts.get(index),
                ready_at=time.monotonic() + delay,
                seq=self._seq,
                key=worker.group,
            )
            if delay > 0.0:
                self._delayed.append(retry)
            else:
                self._pending.append(retry)
            settle(
                PoolEvent(
                    kind="retry",
                    index=index,
                    attempt=attempt + 1,
                    reason=reason,
                    backoff_s=delay,
                )
            )
            return
        if sink.wants(_TRACE_RUNNER):
            sink.emit(task_failed(kind, label, attempt, reason))
        self._timeouts.pop(index, None)
        settle(
            PoolEvent(
                kind="failed",
                index=index,
                failure=TaskFailure(
                    index=index,
                    kind=kind,
                    label=label,
                    reason=reason,
                    message=message,
                    attempts=attempt,
                ),
                reason=reason,
            )
        )
