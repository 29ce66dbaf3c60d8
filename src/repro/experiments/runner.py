"""Parallel, cached, fault-tolerant execution layer for experiment grids.

Every headline figure consumes the same embarrassingly-parallel grid --
benchmark pairs x fairness levels x seeds -- of pure-Python simulation,
so this module supplies the mechanisms that keep a paper-scale sweep
from running serially from scratch every time, and from losing hours of
finished work to one bad task:

* :func:`run_grid` decomposes the pair grid into single-thread baseline
  tasks and per-(pair, level) SOE tasks. Baseline runs are memoized per
  ``(benchmark, stream seed, skip, latency, run length)``, so a
  benchmark that appears in several pairs is simulated alone only once
  -- the same measured-once-reused-everywhere structure that makes
  LFOC-style fairness grids scale.
* :class:`ResultCache` persists finished :class:`PairResult`\\ s to disk,
  keyed by a content hash of ``(pair, EvalConfig, code version)``. The
  code version is a digest of the simulator sources, so editing the
  engine, the controller, or the workload generators invalidates every
  stale entry automatically. Unreadable entries are quarantined (never
  silently deleted) and recomputed.

Execution options (process count, cache directory, supervision knobs)
travel only as ambient :class:`ExecutionSettings`; no experiment
signature takes them. The CLI installs them once via :func:`execution`,
and :func:`run_grid` reads them.

Fault tolerance (see ``docs/ROBUSTNESS.md``): tasks run under the
:class:`~repro.experiments.supervisor.Supervisor` (persistent workers,
wall-clock timeouts, bounded retries, SIGINT/SIGTERM draining), grids
journal finished tasks to an append-only checkpoint so interrupted
sweeps resume bit-identically, and failures surface as a typed manifest
on the :class:`GridOutcome` instead of an opaque traceback.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence, Union

from repro import faults
from repro.engine.backend import SoeRunSpec
from repro.engine.singlethread import run_single_thread
from repro.engine.results import SoeRunResult
from repro.engine.soe import run_soe
from repro.errors import ConfigurationError, GridExecutionError, GridInterrupted
from repro.experiments.checkpoint import CheckpointWriter, load_checkpoint, task_key
from repro.experiments.common import EvalConfig, PairResult
from repro.experiments.supervisor import (
    SupervisionPolicy,
    Supervisor,
    TaskFailure,
    check_invariants,
)
from repro.telemetry import RUNNER as _TRACE_RUNNER
from repro.telemetry import current_sink
from repro.telemetry.events import cache_event, checkpoint_event, task_event
from repro.telemetry.profile import PROFILE, WorkerProfile, merge_latest
from repro.workloads.pairs import BenchmarkPair, evaluation_pairs
from repro.workloads.spec2000 import get_profile

__all__ = [
    "ExecutionSettings",
    "CacheStats",
    "GridOutcome",
    "ResultCache",
    "current_settings",
    "set_execution",
    "execution",
    "single_thread_ipcs",
    "compute_pair",
    "run_grid",
    "code_version",
    "degraded_outcomes",
    "reset_degraded",
]

#: Bump when the on-disk cache payload layout changes.
CACHE_FORMAT = 2

#: ``*.tmp`` files in the cache directory older than this are debris
#: from a crashed writer (live writers rename within milliseconds) and
#: are swept at cache construction.
_TMP_GRACE_SECONDS = 3600.0

#: Packages whose source text determines simulation results. The cache
#: key hashes the bytes of every module in them, so touching any file
#: there drops every cached grid entry (configuration and rendering
#: modules live elsewhere -- they cannot change a PairResult).
_CODE_VERSION_PACKAGES = ("core", "engine", "workloads")

#: The ``repro`` package directory.
_PACKAGE_ROOT = Path(__file__).resolve().parent.parent

_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """Digest of the simulator sources (cached per process).

    The files are read from the package directories rather than
    imported, so taking the digest loads no module the simulation
    itself does not.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        digest = hashlib.sha256()
        for package in _CODE_VERSION_PACKAGES:
            for path in sorted((_PACKAGE_ROOT / package).rglob("*.py")):
                digest.update(path.relative_to(_PACKAGE_ROOT).as_posix().encode())
                digest.update(b"\0")
                digest.update(path.read_bytes())
        _CODE_VERSION = digest.hexdigest()[:16]
    return _CODE_VERSION


#: Legal ``on_failure`` policies: ``abort`` raises (carrying the
#: partial outcome), ``degrade`` returns whatever completed.
ON_FAILURE_MODES = ("abort", "degrade")

#: Legal ``checkpoint_sync`` policies: ``every`` fsyncs per record.
CHECKPOINT_SYNC_MODES = ("every",)


@dataclass(frozen=True)
class ExecutionSettings:
    """How grid work is executed (not *what* is computed).

    These knobs never influence results -- parallel, cached, supervised
    and resumed runs are bit-identical to serial uncached ones -- so
    they are kept out of :class:`EvalConfig` and out of the cache key.

    ``task_timeout``/``retries`` bound individual task attempts (see
    :class:`~repro.experiments.supervisor.SupervisionPolicy`);
    ``checkpoint`` journals finished tasks, ``resume`` prefills from an
    existing journal, and ``on_failure`` picks between aborting with
    the partial outcome attached (``abort``) and returning a degraded
    outcome (``degrade``). ``checkpoint_sync`` is the journal's
    durability granularity; ``"every"`` (fsync per task record) is the
    only mode.
    """

    jobs: int = 1
    cache_dir: Optional[Path] = None
    task_timeout: Optional[float] = None
    retries: int = 2
    #: Base seconds of the deterministic exponential retry backoff
    #: with seeded jitter (0 = retry immediately); see
    #: :func:`repro.experiments.supervisor.backoff_delay`.
    retry_backoff: float = 0.0
    on_failure: str = "abort"
    checkpoint: Optional[Path] = None
    resume: bool = False
    checkpoint_sync: str = "every"

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ConfigurationError("jobs must be a positive process count")
        if self.checkpoint_sync not in CHECKPOINT_SYNC_MODES:
            raise ConfigurationError(
                f"checkpoint_sync must be one of {CHECKPOINT_SYNC_MODES}, "
                f"got {self.checkpoint_sync!r}"
            )
        if self.cache_dir is not None and not isinstance(self.cache_dir, Path):
            object.__setattr__(self, "cache_dir", Path(self.cache_dir))
        if self.checkpoint is not None and not isinstance(self.checkpoint, Path):
            object.__setattr__(self, "checkpoint", Path(self.checkpoint))
        if self.on_failure not in ON_FAILURE_MODES:
            raise ConfigurationError(
                f"on_failure must be one of {ON_FAILURE_MODES}, "
                f"got {self.on_failure!r}"
            )
        if self.resume and self.checkpoint is None:
            raise ConfigurationError("resume requires a checkpoint path")
        # Delegates range validation of the supervision knobs.
        SupervisionPolicy(
            task_timeout=self.task_timeout,
            retries=self.retries,
            retry_backoff=self.retry_backoff,
        )

    @property
    def policy(self) -> SupervisionPolicy:
        return SupervisionPolicy(
            task_timeout=self.task_timeout,
            retries=self.retries,
            retry_backoff=self.retry_backoff,
        )


_AMBIENT = ExecutionSettings()


def current_settings() -> ExecutionSettings:
    """The ambient execution settings (serial, uncached by default)."""
    return _AMBIENT


def set_execution(settings: ExecutionSettings) -> ExecutionSettings:
    """Install new ambient settings; returns the previous ones."""
    global _AMBIENT
    previous = _AMBIENT
    _AMBIENT = settings
    return previous


@contextmanager
def execution(settings: ExecutionSettings) -> Iterator[ExecutionSettings]:
    """Scope ambient execution settings to a ``with`` block."""
    previous = set_execution(settings)
    try:
        yield settings
    finally:
        set_execution(previous)


def _task_descriptor(item: Union[_StTask, _SoeTask]) -> tuple[str, str]:
    """(kind, label) describing a grid task in trace events."""
    if isinstance(item, _StTask):
        return "single_thread", f"{item.benchmark}@s{item.stream_seed}"
    return "soe_pair", f"{item.pair.label}@F{item.level:g}"


def _task_policy(item: object) -> Optional[str]:
    """The registered policy name enforcing a task's run, if any.

    Single-thread baselines have no policy dimension (None); an SOE run
    at level 0 is the unenforced baseline whatever the configured
    policy, so it reports ``"none"``.
    """
    if isinstance(item, _SoeTask):
        return item.config.policy if item.level > 0.0 else "none"
    return None


@dataclass(frozen=True)
class _TaskOutcome:
    """A task's result plus the executing process's profile snapshot."""

    result: object
    profile: WorkerProfile


class _TracedCall:
    """Task-function wrapper used when a trace sink is active.

    Emits runner ``task`` start/stop events (with worker pid and wall
    time) around the wrapped call and returns the result together with
    the process's cumulative profile, so the parent can merge worker
    profiling without any shared state. The wrapper is picklable
    (it holds only the module-level task function).
    """

    def __init__(self, func: Callable) -> None:
        self.func = func

    def __call__(self, item: object) -> _TaskOutcome:
        sink = current_sink()
        kind, label = _task_descriptor(item)
        policy = _task_policy(item)
        worker = os.getpid()
        if sink.wants(_TRACE_RUNNER):
            sink.emit(task_event("start", kind, label, worker, policy=policy))
        start = time.perf_counter()
        result = self.func(item)
        wall = time.perf_counter() - start
        PROFILE.record_task(wall)
        if sink.wants(_TRACE_RUNNER):
            sink.emit(
                task_event("stop", kind, label, worker, wall_s=wall, policy=policy)
            )
        return _TaskOutcome(result=result, profile=PROFILE.snapshot())


def _unwrap(payload: object) -> object:
    """The task's bare result, whether or not tracing wrapped it."""
    return payload.result if isinstance(payload, _TaskOutcome) else payload


def _validate_payload(payload: object) -> None:
    """Supervisor invariant hook: validate the result, not the wrapper."""
    check_invariants(_unwrap(payload))


def _merge_worker_profiles(outcomes: Sequence[object]) -> None:
    """Fold foreign workers' profiling totals into this process's.

    Each worker's counters are monotonic, so its *latest* snapshot (the
    field-wise maximum over what came back) is its total; snapshots
    from this process are already in :data:`PROFILE` and are skipped.
    """
    parent = os.getpid()
    latest: dict[int, WorkerProfile] = {}
    for outcome in outcomes:
        if not isinstance(outcome, _TaskOutcome):
            continue
        profile = outcome.profile
        if profile.pid == parent:
            continue
        previous = latest.get(profile.pid)
        latest[profile.pid] = (
            profile if previous is None else merge_latest(previous, profile)
        )
    for profile in latest.values():
        PROFILE.merge(profile)


# ---------------------------------------------------------------------------
# Task decomposition: the grid is (ST baselines) + (pair x level SOE runs),
# every task a pure function of its frozen spec.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _StTask:
    """One single-thread reference run (the memoization key)."""

    benchmark: str
    stream_seed: int
    skip_instructions: float
    miss_lat: float
    min_instructions: float


@dataclass(frozen=True)
class _SoeTask:
    """One multithreaded SOE run of a pair at one fairness level."""

    pair: BenchmarkPair
    level: float
    config: EvalConfig


def _st_tasks_for(pair: BenchmarkPair, config: EvalConfig) -> tuple[_StTask, ...]:
    return tuple(
        _StTask(
            benchmark=benchmark,
            stream_seed=stream_seed,
            skip_instructions=skip,
            miss_lat=config.miss_lat,
            min_instructions=config.st_min_instructions,
        )
        for benchmark, stream_seed, skip in pair.stream_specs(config.seed)
    )


def _task_streams(
    task: Union[_StTask, _SoeTask],
) -> tuple[tuple[str, int, float], ...]:
    """The ``(benchmark, stream seed, skip)`` streams a task reads."""
    if isinstance(task, _StTask):
        return ((task.benchmark, task.stream_seed, task.skip_instructions),)
    return task.pair.stream_specs(task.config.seed)


def _stream_groups(
    specs: Sequence[Union[_StTask, _SoeTask]],
) -> list[frozenset[tuple[str, int, float]]]:
    """Each task's stream group: the set of streams connected to its own.

    Two tasks that share a stream share a group. Each pool worker
    records the streams it draws once (the per-process stream memo), so
    a worker that runs whole groups draws each stream once instead of
    every worker drawing it again.
    """
    group: dict[tuple[str, int, float], frozenset[tuple[str, int, float]]] = {}
    for spec in specs:
        streams = _task_streams(spec)
        merged = frozenset(streams).union(
            *(group.get(stream, ()) for stream in streams)
        )
        for stream in sorted(merged):
            group[stream] = merged
    return [group[_task_streams(spec)[0]] for spec in specs]


def _run_st_task(task: _StTask) -> float:
    profile = get_profile(task.benchmark)
    stream = profile.stream(
        seed=task.stream_seed, skip_instructions=task.skip_instructions
    )
    return run_single_thread(
        stream,
        miss_lat=profile.single_thread_stall(task.miss_lat),
        min_instructions=task.min_instructions,
    ).ipc


def _soe_run_spec(task: _SoeTask) -> SoeRunSpec:
    """The task's run as pure data (level 0 is the unenforced baseline)."""
    config = task.config
    return SoeRunSpec(
        streams=task.pair.streams(seed=config.seed),
        params=config.soe_params(),
        limits=config.run_limits(),
        policy=config.policy_config(task.level) if task.level > 0.0 else None,
    )


def _run_soe_task(task: _SoeTask) -> SoeRunResult:
    spec = _soe_run_spec(task)
    return run_soe(spec.streams, spec.make_policy(), spec.params, spec.limits)


def _run_grid_task(task: Union[_StTask, _SoeTask]) -> object:
    """Dispatch for the grid's unified supervised task batch."""
    if isinstance(task, _StTask):
        return _run_st_task(task)
    return _run_soe_task(task)


def single_thread_ipcs(
    pair: BenchmarkPair, config: EvalConfig = EvalConfig()
) -> tuple[float, ...]:
    """Measured single-thread IPC per thread of ``pair``."""
    return tuple(_run_st_task(task) for task in _st_tasks_for(pair, config))


def compute_pair(
    pair: BenchmarkPair, config: EvalConfig = EvalConfig()
) -> PairResult:
    """Run one pair at every configured fairness level.

    The single source of truth for what a grid cell is: the serial
    path, the supervised executor, and the cache loader all produce
    results assembled from exactly these task functions.
    """
    ipc_st = single_thread_ipcs(pair, config)
    runs = {
        level: _run_soe_task(_SoeTask(pair=pair, level=level, config=config))
        for level in config.fairness_levels
    }
    return PairResult(pair=pair, ipc_st=ipc_st, runs=runs)


# ---------------------------------------------------------------------------
# On-disk result cache
# ---------------------------------------------------------------------------


@dataclass
class CacheStats:
    """Cache accounting of one grid execution (zero when uncached)."""

    hits: int = 0
    misses: int = 0
    #: entries quarantined (renamed to ``*.quarantine``) as unreadable
    corrupt: int = 0
    #: stale ``*.tmp`` writer debris removed at cache construction
    swept: int = 0


#: Length of the SHA-256 digest that heads every cache entry.
_DIGEST_SIZE = 32


class ResultCache:
    """Content-addressed store of finished :class:`PairResult` objects.

    The key hashes the pair, every :class:`EvalConfig` field, and
    :func:`code_version`, so an entry can only ever be replayed for the
    exact computation that produced it. Entries are pickled (floats
    round-trip exactly, keeping cached results bit-identical), prefixed
    with the SHA-256 of the pickle, and written atomically (temp file +
    ``fsync`` + ``rename``) so concurrent runs sharing a directory never
    see torn files. The digest is checked before anything is unpickled:
    garbage bytes can make :func:`pickle.loads` raise almost anything,
    or try to allocate gigabytes, so corrupt bytes never reach it.

    An unreadable or mismatched entry reads as a miss, but is
    *quarantined* -- renamed to ``<entry>.quarantine`` and reported via
    a ``cache_event("corrupt", ...)`` -- never silently deleted, so
    corruption stays diagnosable. Construction sweeps ``*.tmp`` debris
    left by crashed writers.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        #: paths quarantined by this instance (``*.quarantine``)
        self.quarantined: list[Path] = []
        #: stale writer temp files removed by this instance
        self.swept: list[Path] = []
        self._sweep_stale_tmp()

    def _sweep_stale_tmp(self) -> None:
        """Remove ``*.tmp`` writer debris predating the current run.

        A live writer holds its temp file only for the instants between
        create and rename, so anything older than the grace window is
        guaranteed to be a crashed writer's leak. (Wall clock used only
        for file-age housekeeping; RL002-exempt with the rest of this
        module.)
        """
        if not self.directory.is_dir():
            return
        cutoff = time.time() - _TMP_GRACE_SECONDS
        sink = current_sink()
        for tmp in sorted(self.directory.glob("*.tmp")):
            try:
                if tmp.stat().st_mtime >= cutoff:
                    continue
                tmp.unlink()
            except OSError:
                continue  # raced with another sweeper, or vanished
            self.swept.append(tmp)
            if sink.wants(_TRACE_RUNNER):
                sink.emit(cache_event("sweep", tmp.name))

    def key(self, pair: BenchmarkPair, config: EvalConfig) -> str:
        fingerprint = (
            "pair-grid",
            CACHE_FORMAT,
            code_version(),
            pair.first,
            pair.second,
            tuple(
                (field.name, repr(getattr(config, field.name)))
                for field in fields(config)
            ),
        )
        return hashlib.sha256(repr(fingerprint).encode()).hexdigest()[:32]

    def path(self, pair: BenchmarkPair, config: EvalConfig) -> Path:
        return self.directory / f"pair-{self.key(pair, config)}.pkl"

    def _quarantine(self, path: Path, label: str) -> None:
        quarantine = path.with_name(path.name + ".quarantine")
        try:
            os.replace(path, quarantine)
        except OSError:
            return  # a concurrent run already quarantined it
        self.quarantined.append(quarantine)
        sink = current_sink()
        if sink.wants(_TRACE_RUNNER):
            sink.emit(cache_event("corrupt", label))

    def load(self, pair: BenchmarkPair, config: EvalConfig) -> Optional[PairResult]:
        path = self.path(pair, config)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return None
        digest, body = data[:_DIGEST_SIZE], data[_DIGEST_SIZE:]
        if hashlib.sha256(body).digest() != digest:
            self._quarantine(path, pair.label)
            return None
        # The digest matched, so these are the bytes ``store`` wrote
        # under a key that pins CACHE_FORMAT and the code version.
        return pickle.loads(body)["result"]

    def store(
        self, pair: BenchmarkPair, config: EvalConfig, result: PairResult
    ) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        body = pickle.dumps({"format": CACHE_FORMAT, "result": result})
        fd, tmp_name = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(hashlib.sha256(body).digest() + body)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, self.path(pair, config))
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise


# ---------------------------------------------------------------------------
# The grid runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridOutcome:
    """Results of one grid execution plus its robustness accounting.

    A fully successful run has ``ok == True`` and empty failure fields;
    a degraded or interrupted run still carries every completed
    :class:`PairResult` (in the caller's pair order, incomplete pairs
    elided) plus a machine-readable :meth:`failure_manifest`.
    """

    results: list[PairResult]
    stats: CacheStats
    #: tasks that exhausted their retry budget
    failures: tuple[TaskFailure, ...] = ()
    #: labels of pairs elided from ``results`` (a task failed/skipped)
    incomplete_pairs: tuple[str, ...] = ()
    #: a drain (SIGINT/SIGTERM) cut the run short
    interrupted: bool = False
    #: tasks prefilled from the resume checkpoint
    resumed_tasks: int = 0
    #: retry attempts consumed across all tasks
    retries: int = 0
    #: tasks never launched because of a drain
    skipped_tasks: int = 0

    @property
    def ok(self) -> bool:
        return (
            not self.failures
            and not self.incomplete_pairs
            and not self.interrupted
        )

    def failure_manifest(self) -> dict:
        """JSON-ready account of what did not complete and why."""
        return {
            "version": 1,
            "ok": self.ok,
            "interrupted": self.interrupted,
            "completed_pairs": len(self.results),
            "incomplete_pairs": list(self.incomplete_pairs),
            "failures": [failure.to_json() for failure in self.failures],
            "resumed_tasks": self.resumed_tasks,
            "retries": self.retries,
            "skipped_tasks": self.skipped_tasks,
        }


#: Degraded/interrupted outcomes observed since the last reset; lets
#: the CLI map "the run finished but not everything completed" onto a
#: distinct exit code without threading outcomes through every
#: experiment's return type.
_DEGRADED: list[GridOutcome] = []


def degraded_outcomes() -> list[GridOutcome]:
    """Grid outcomes since :func:`reset_degraded` with ``ok == False``."""
    return list(_DEGRADED)


def reset_degraded() -> None:
    """Clear the degraded-outcome record (start of a CLI invocation)."""
    _DEGRADED.clear()


def _grid_fingerprint(
    config: EvalConfig, pair_list: Sequence[BenchmarkPair]
) -> str:
    """Pins a checkpoint to one exact grid computation."""
    fingerprint = (
        "grid-checkpoint",
        code_version(),
        tuple(
            (field.name, repr(getattr(config, field.name)))
            for field in fields(config)
        ),
        tuple(repr(pair) for pair in pair_list),
    )
    return hashlib.sha256(repr(fingerprint).encode()).hexdigest()[:32]


def run_grid(
    config: EvalConfig = EvalConfig(),
    pairs: Optional[Sequence[BenchmarkPair]] = None,
    settings: Optional[ExecutionSettings] = None,
) -> GridOutcome:
    """Execute the pair/fairness grid under the given settings.

    The decomposition is deterministic: unique single-thread tasks in
    first-appearance order, then every (pair, level) SOE task in pair
    order, then assembly back into :class:`PairResult` objects in the
    caller's pair order. Because each task is a pure function of its
    spec, the result is independent of ``jobs``, of cache state, of
    supervision (timeouts, retries, worker crashes), and of
    checkpoint/resume. With ``jobs > 1`` each task carries its stream
    group as an affinity key, so a pool worker runs the tasks that read
    the streams it already recorded; that changes only the order of
    launches.

    Failure semantics: tasks that exhaust their retry budget (and the
    pairs depending on them) are recorded in the outcome's failure
    manifest. Under ``on_failure="abort"`` the run raises
    :class:`~repro.errors.GridExecutionError` (or
    :class:`~repro.errors.GridInterrupted` after a drain) *carrying*
    the partial outcome; under ``"degrade"`` the partial outcome is
    returned. Either way completed work is cached and journaled first.
    """
    if settings is None:
        settings = current_settings()
    pair_list = list(pairs) if pairs is not None else evaluation_pairs()
    cache = (
        ResultCache(settings.cache_dir) if settings.cache_dir is not None else None
    )
    stats = CacheStats()
    sink = current_sink()
    results: dict[int, PairResult] = {}
    pending: list[tuple[int, BenchmarkPair]] = []
    for index, pair in enumerate(pair_list):
        cached = cache.load(pair, config) if cache is not None else None
        if cached is not None:
            results[index] = cached
            stats.hits += 1
            if sink.wants(_TRACE_RUNNER):
                sink.emit(cache_event("hit", pair.label))
        else:
            if cache is not None:
                stats.misses += 1
                if sink.wants(_TRACE_RUNNER):
                    sink.emit(cache_event("miss", pair.label))
            pending.append((index, pair))

    failures: tuple[TaskFailure, ...] = ()
    incomplete: list[str] = []
    interrupted = False
    resumed = 0
    retries = 0
    skipped_tasks = 0
    if pending:
        # Deterministic unified task batch: unique ST baselines in
        # first-appearance order, then (pair, level) SOE tasks in pair
        # order. Global indices are the stable coordinates checkpoint
        # records and fault injection address.
        st_tasks: dict[_StTask, None] = {}
        for _, pair in pending:
            for task in _st_tasks_for(pair, config):
                st_tasks.setdefault(task)
        st_order = list(st_tasks)
        st_index = {task: position for position, task in enumerate(st_order)}
        levels = config.fairness_levels
        specs: list[Union[_StTask, _SoeTask]] = list(st_order)
        for _, pair in pending:
            for level in levels:
                specs.append(_SoeTask(pair=pair, level=level, config=config))

        version = code_version()
        keys = [task_key(spec, version) for spec in specs]
        groups = _stream_groups(specs)
        task_values: dict[int, object] = {}
        writer: Optional[CheckpointWriter] = None
        try:
            if settings.checkpoint is not None:
                fingerprint = _grid_fingerprint(config, pair_list)
                journal = settings.checkpoint
                if (
                    settings.resume
                    and journal.exists()
                    and journal.stat().st_size > 0
                ):
                    state = load_checkpoint(journal)
                    if state.fingerprint != fingerprint:
                        raise ConfigurationError(
                            f"checkpoint {journal} was written for a "
                            "different grid (config, pair list, or "
                            "simulator code changed); refusing to resume "
                            "from it"
                        )
                    for position, key in enumerate(keys):
                        if key in state.tasks:
                            task_values[position] = state.tasks[key]
                    resumed = len(task_values)
                    if sink.wants(_TRACE_RUNNER):
                        sink.emit(
                            checkpoint_event("resume", resumed, str(journal))
                        )
                writer = CheckpointWriter(journal, fingerprint, version)

            to_run = [
                (position, spec)
                for position, spec in enumerate(specs)
                if position not in task_values
            ]

            traced = sink.enabled
            call: Callable = (
                _TracedCall(_run_grid_task) if traced else _run_grid_task
            )
            payloads: list[object] = []

            def _on_result(position: int, item: object, payload: object) -> None:
                value = _unwrap(payload)
                payloads.append(payload)
                task_values[position] = value
                if writer is not None:
                    kind = "st" if isinstance(item, _StTask) else "soe"
                    writer.record(kind, keys[position], value)
                    if sink.wants(_TRACE_RUNNER):
                        sink.emit(
                            checkpoint_event("write", 1, str(settings.checkpoint))
                        )

            supervisor = Supervisor(
                call,
                to_run,
                jobs=min(settings.jobs, max(len(to_run), 1)),
                policy=settings.policy,
                descriptor=_task_descriptor,
                validate=_validate_payload,
                on_result=_on_result,
                affinity=groups.__getitem__,
            )
            run = supervisor.run()
        finally:
            if writer is not None:
                writer.close()
        if traced:
            _merge_worker_profiles(payloads)
        failures = tuple(run.failures)
        interrupted = run.interrupted
        retries = run.retries
        skipped_tasks = len(run.skipped)

        # Assemble completed pairs; a pair missing any task is elided
        # (recorded as incomplete) rather than built from partial data.
        plan = faults.current_plan()
        soe_base = len(st_order)
        for slot, (index, pair) in enumerate(pending):
            st_positions = [
                st_index[task] for task in _st_tasks_for(pair, config)
            ]
            soe_positions = [
                soe_base + slot * len(levels) + offset
                for offset in range(len(levels))
            ]
            if not all(
                position in task_values
                for position in st_positions + soe_positions
            ):
                incomplete.append(pair.label)
                continue
            result = PairResult(
                pair=pair,
                ipc_st=tuple(
                    task_values[position] for position in st_positions
                ),
                runs={
                    level: task_values[soe_positions[offset]]
                    for offset, level in enumerate(levels)
                },
            )
            results[index] = result
            if cache is not None:
                cache.store(pair, config, result)
                if plan.corrupts_cache(index):
                    plan.corrupt_file(cache.path(pair, config))

    if cache is not None:
        stats.corrupt = len(cache.quarantined)
        stats.swept = len(cache.swept)
    ordered = [
        results[index] for index in range(len(pair_list)) if index in results
    ]
    outcome = GridOutcome(
        results=ordered,
        stats=stats,
        failures=failures,
        incomplete_pairs=tuple(incomplete),
        interrupted=interrupted,
        resumed_tasks=resumed,
        retries=retries,
        skipped_tasks=skipped_tasks,
    )
    if not outcome.ok:
        _DEGRADED.append(outcome)
        if settings.on_failure == "abort":
            summary = (
                f"grid ended with {len(outcome.failures)} failed task(s); "
                f"{len(outcome.incomplete_pairs)} of {len(pair_list)} "
                "pair(s) incomplete"
            )
            if outcome.interrupted:
                raise GridInterrupted(
                    f"grid interrupted; {summary}", outcome
                )
            raise GridExecutionError(summary, outcome)
    return outcome
