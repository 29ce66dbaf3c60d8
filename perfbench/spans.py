"""Per-layer spans recorded around calls into the simulator's layers.

The simulator is not edited: :meth:`Tracer.install` swaps wrappers in
for the public functions at each layer boundary and
:meth:`Tracer.uninstall` restores the originals. Spans are aggregated in memory per name (count, total
and self time; self time is a span's duration minus the time its child
spans cover), so a traced run stays cheap enough to finish.

Pool and per-task workers are forked, so they inherit the wrappers. A
fork hook empties the inherited aggregates in the child, and each
worker writes its aggregates to ``spans-<pid>.json`` after every task it
runs; :func:`merge_dir` folds those files together afterwards.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: Every layer module a wrapper touches; imported before patching so
#: that every ``from x import f`` binding can be replaced too.
_LAYER_MODULES = (
    "repro.engine.segments",
    "repro.workloads.materialize",
    "repro.engine.soe",
    "repro.engine.singlethread",
    "repro.engine.backend",
    "repro.cpu.soe_core",
    "repro.cpu.validation",
    "repro.experiments.supervisor",
    "repro.experiments.checkpoint",
    "repro.experiments.runner",
    "repro.service.state",
    "repro.service.queueing",
    "repro.service.app",
)


class Recorder:
    """Span aggregates, counters and samples of one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        #: name -> [count, total seconds, self seconds]
        self.spans: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: job id -> time it entered a tenant queue (service only)
        self.enqueued: Dict[str, float] = {}
        self._local = threading.local()

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self) -> float:
        """Open a span on this thread; returns its start time."""
        self._stack().append(0.0)
        return self.clock()

    def exit(self, name: str, start: float) -> float:
        """Close the innermost open span; returns its duration."""
        duration = self.clock() - start
        stack = self._stack()
        covered = stack.pop()
        aggregate = self.spans.setdefault(name, [0, 0.0, 0.0])
        aggregate[0] += 1
        aggregate[1] += duration
        aggregate[2] += duration - covered
        if stack:
            stack[-1] += duration
        return duration

    def leaf(self, name: str, duration: float) -> None:
        """Account a child-free span measured by the caller."""
        aggregate = self.spans.setdefault(name, [0, 0.0, 0.0])
        aggregate[0] += 1
        aggregate[1] += duration
        aggregate[2] += duration
        stack = self._stack()
        if stack:
            stack[-1] += duration

    def to_json(self) -> dict:
        return {
            "pid": self.pid,
            "spans": self.spans,
            "counters": dict(self.counters),
            "samples": dict(self.samples),
        }


def merge(parts: List[dict]) -> dict:
    """Sum span aggregates, counters and samples of several processes."""
    spans: Dict[str, List[float]] = {}
    counters: Dict[str, float] = defaultdict(float)
    samples: Dict[str, List[float]] = defaultdict(list)
    for part in parts:
        for name, (count, total, own) in part["spans"].items():
            aggregate = spans.setdefault(name, [0, 0.0, 0.0])
            aggregate[0] += count
            aggregate[1] += total
            aggregate[2] += own
        for name, value in part["counters"].items():
            counters[name] += value
        for name, values in part["samples"].items():
            samples[name].extend(values)
    return {"spans": spans, "counters": dict(counters), "samples": dict(samples)}


def merge_dir(directory: Path, own: Optional[Recorder] = None) -> dict:
    """Merge every ``spans-*.json`` in ``directory`` (plus ``own``)."""
    parts = [json.loads(path.read_text()) for path in sorted(directory.glob("spans-*.json"))]
    if own is not None:
        parts.append(own.to_json())
    return merge(parts)


class _TimedIterator:
    """Times and counts each segment a stream hands its consumer."""

    __slots__ = ("_inner", "_recorder")

    def __init__(self, inner, recorder: Recorder) -> None:
        self._inner = inner
        self._recorder = recorder

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self):
        clock = self._recorder.clock
        start = clock()
        try:
            segment = next(self._inner)
        finally:
            self._recorder.leaf("workloads.next", clock() - start)
        self._recorder.counters["workloads.segments"] += 1
        return segment


class Tracer:
    """Installs and removes the layer wrappers around one recorder."""

    def __init__(self, dump_dir: Path) -> None:
        self.recorder = Recorder()
        self.dump_dir = dump_dir
        self.owner_pid = os.getpid()
        self._saved: List[tuple] = []
        self._fork_hook_registered = False

    # -- worker-side persistence -------------------------------------

    def _after_fork(self) -> None:
        if self._saved:
            self.recorder.reset()

    def dump(self, force: bool = False) -> None:
        """Write a worker's aggregates to its per-pid file.

        The installing process keeps its aggregates in memory (they are
        merged directly) unless ``force`` asks for a file.
        """
        if os.getpid() == self.owner_pid and not force:
            return
        self.dump_dir.mkdir(parents=True, exist_ok=True)
        target = self.dump_dir / f"spans-{os.getpid()}.json"
        tmp = target.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.recorder.to_json()))
        os.replace(tmp, target)

    # -- wrapping ------------------------------------------------------

    def _span(self, name: str, func: Callable, after: Optional[Callable] = None,
              dump: bool = False) -> Callable:
        recorder = self.recorder

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            start = recorder.enter()
            try:
                result = func(*args, **kwargs)
            finally:
                duration = recorder.exit(name, start)
            if after is not None:
                after(result, args, duration)
            if dump:
                self.dump()
            return result

        return wrapper

    def _replace(self, owner: object, attr: str, wrapper: Callable) -> None:
        original = getattr(owner, attr)
        targets = [owner]
        if not isinstance(owner, type):
            # Module-level function: also rebind every ``from m import f``.
            targets = [
                module for name, module in list(sys.modules.items())
                if name.startswith("repro.")
                and getattr(module, attr, None) is original
            ]
        for target in targets:
            self._saved.append((target, attr, target.__dict__[attr]))
            setattr(target, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer boundary; idempotent per install/uninstall."""
        if self._saved:
            return
        modules = {name: importlib.import_module(name) for name in _LAYER_MODULES}
        if not self._fork_hook_registered:
            os.register_at_fork(after_in_child=self._after_fork)
            self._fork_hook_registered = True
        self.recorder.reset()
        self.owner_pid = os.getpid()
        rec = self.recorder

        # workloads: segment-stream iteration and column materialization
        segments_cls = modules["repro.engine.segments"].SegmentStream
        original_segments = segments_cls.segments

        def segments(stream):
            return _TimedIterator(original_segments(stream), rec)

        self._replace(segments_cls, "segments", segments)
        take_cls = modules["repro.workloads.materialize"].ChunkedMaterializer
        self._replace(take_cls, "take", self._span("workloads.take", take_cls.take))

        # engine: scalar SOE, single-thread and batch kernels
        def cycles_of(result, args, duration):
            rec.counters["engine.sim_cycles"] += getattr(result, "cycles", 0.0)

        def batch_cycles(result, args, duration):
            rec.counters["engine.batch.runs"] += len(result)
            rec.counters["engine.sim_cycles"] += sum(r.cycles for r in result)

        soe = modules["repro.engine.soe"]
        self._replace(soe, "run_soe", self._span("engine.scalar", soe.run_soe, cycles_of))
        single = modules["repro.engine.singlethread"]
        self._replace(
            single, "run_single_thread",
            self._span("engine.st", single.run_single_thread, cycles_of),
        )
        try:
            batch_cls = importlib.import_module("repro.engine.batch").BatchBackend
        except ImportError:  # numpy missing: no batch backend to trace
            batch_cls = None
        if batch_cls is not None:
            self._replace(
                batch_cls, "run_batch",
                self._span("engine.batch", batch_cls.run_batch, batch_cycles),
            )

        # cpu: the detailed out-of-order core
        profile = importlib.import_module("repro.telemetry.profile").PROFILE
        core = modules["repro.cpu.soe_core"]
        for attr in ("run_cpu_soe", "run_cpu_single_thread"):
            self._replace(core, attr, self._cpu_span(getattr(core, attr), profile))

        # execution: supervisor runs, worker task bodies, pool traffic
        supervisor = modules["repro.experiments.supervisor"]

        def run_outcome(result, args, duration):
            rec.counters["supervisor.retries"] += result.retries
            rec.counters["supervisor.failed"] += len(result.failures)
            rec.counters["supervisor.jobs_x_busy_s"] += args[0]._jobs * duration

        self._replace(
            supervisor.Supervisor, "run",
            self._span("supervisor.run", supervisor.Supervisor.run, run_outcome),
        )
        runner = modules["repro.experiments.runner"]
        self._replace(
            runner, "_run_grid_task",
            self._span("supervisor.task", runner._run_grid_task, dump=True),
        )
        app = modules["repro.service.app"]
        def job_run(result, args, duration):
            rec.samples["service.run_s"].append(duration)

        self._replace(
            app, "_execute_job",
            self._span("supervisor.task", app._execute_job, job_run, dump=True),
        )

        def pump_events(events, args, duration):
            for event in events:
                if event.kind == "retry":
                    rec.counters["supervisor.retries"] += 1
                elif event.kind == "failed":
                    rec.counters["supervisor.failed"] += 1

        def pool_submit(result, args, duration):
            pair, config = args[2]
            rec.counters["service.runs"] += 1
            rec.counters[f"run:{pair.label}@{config.seed}"] += 1

        pool = supervisor.TaskPool
        self._replace(pool, "pump", self._span("supervisor.pump", pool.pump, pump_events))
        self._replace(pool, "submit", self._span("supervisor.submit", pool.submit, pool_submit))

        # persistence: grid checkpoint, result cache, service journal
        writer = modules["repro.experiments.checkpoint"].CheckpointWriter

        def one_record(result, args, duration):
            rec.counters["checkpoint.records"] += 1

        def many_records(result, args, duration):
            rec.counters["checkpoint.records"] += len(args[1])

        self._replace(writer, "record", self._span("checkpoint.write", writer.record, one_record))
        self._replace(
            writer, "record_many",
            self._span("checkpoint.write", writer.record_many, many_records),
        )
        cache = runner.ResultCache

        def cache_lookup(result, args, duration):
            rec.counters["cache.misses" if result is None else "cache.hits"] += 1

        self._replace(cache, "load", self._span("cache.load", cache.load, cache_lookup))
        self._replace(cache, "store", self._span("cache.store", cache.store))
        journal = modules["repro.service.state"].JobJournal

        def journaled(result, args, duration):
            rec.counters["journal.records"] += 1

        for attr in ("record_spec", "record_done", "record_fail", "note"):
            self._replace(
                journal, attr,
                self._span("journal.write", getattr(journal, attr), journaled),
            )

        # service: admission and DRR queue wait
        self._replace(
            app.ServiceApp, "submit", self._span("service.admit", app.ServiceApp.submit)
        )
        scheduler = modules["repro.service.queueing"].DrrScheduler
        original_offer = scheduler.offer
        original_next = scheduler.next_job

        def offer(sched, job):
            admission = original_offer(sched, job)
            if admission.accepted:
                rec.enqueued[job.id] = rec.clock()
            return admission

        def next_job(sched):
            job = original_next(sched)
            if job is not None and job.id in rec.enqueued:
                wait = rec.clock() - rec.enqueued.pop(job.id)
                rec.samples["service.queue_wait_s"].append(wait)
            return job

        self._replace(scheduler, "offer", offer)
        self._replace(scheduler, "next_job", next_job)

    def _cpu_span(self, func: Callable, profile) -> Callable:
        rec = self.recorder

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            before = profile.snapshot().simulated_cycles
            start = rec.enter()
            try:
                return func(*args, **kwargs)
            finally:
                rec.exit("cpu", start)
                rec.counters["cpu.cycles"] += (
                    profile.snapshot().simulated_cycles - before
                )

        return wrapper

    def uninstall(self) -> None:
        """Restore every original binding."""
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)
