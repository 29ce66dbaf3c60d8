"""The service composition: queues, pool, breaker, journal, HTTP.

Two execution contexts cooperate here:

* the **asyncio event loop** (main thread) serves HTTP: admission,
  status/result reads, watch streams, health probes;
* the **dispatcher thread** owns the supervised
  :class:`~repro.experiments.supervisor.TaskPool`: it pulls jobs from
  the DRR scheduler while the breaker allows, pumps the pool, and
  applies settled outcomes. Between cycles it sleeps inside the pump
  until a worker frame arrives, a submission wakes it, a retry backoff
  or deadline comes due, or ``_PUMP_WAIT_S`` elapses -- an idle
  service costs no CPU.

All shared job state (the jobs table, the scheduler, the breaker, the
journal) is guarded by one lock; the pool itself is driven *only* by
the dispatcher thread (handlers just call its thread-safe ``wake``), so
supervision never contends with request handling. Handlers hold the
lock for microseconds (dict lookups, one journal fsync on admission)
-- the loop stays responsive while simulations run.

Results never travel through service code paths that could change
them: a job's ``PairResult`` is computed by the same
:func:`~repro.experiments.runner.compute_pair` the grid uses, cached in
the same :class:`~repro.experiments.runner.ResultCache`, and journaled
as the same pickle -- so a result served after a crash, a retry storm,
or a breaker trip is bit-identical to one computed on a quiet day.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import AsyncIterator, Dict, List, Optional

from repro import faults
from repro.errors import ConfigurationError
from repro.experiments.common import EvalConfig, PairResult
from repro.experiments.io import result_to_jsonable
from repro.experiments.runner import ResultCache, code_version
from repro.experiments.supervisor import (
    PoolEvent,
    SupervisionPolicy,
    TaskPool,
)
from repro.service import http
from repro.service.breaker import CircuitBreaker
from repro.service.jobs import Job, JobSpec, job_id, parse_job_spec
from repro.service.queueing import DrrScheduler
from repro.service.state import JobJournal, load_job_records
from repro.telemetry import RUNNER as _TRACE_RUNNER
from repro.telemetry import current_sink
from repro.telemetry.events import job_event, queue_event
from repro.workloads.pairs import BenchmarkPair

__all__ = ["ServiceConfig", "ServiceApp", "run_service"]

#: Longest the dispatcher sleeps in one pump when nothing wakes it, so
#: also how long one idle cycle of the breaker's clock lasts.
_PUMP_WAIT_S = 0.05

#: Watch streams poll job state at this cadence.
_WATCH_POLL_S = 0.05


def _execute_job(item: object) -> PairResult:
    """Top-level task callable the pool workers run (must pickle)."""
    pair, config = item
    from repro.experiments.runner import compute_pair

    return compute_pair(pair, config)


def _job_descriptor(item: object) -> tuple:
    pair, _config = item
    return "service_job", pair.label


@dataclass(frozen=True)
class ServiceConfig:
    """Everything ``python -m repro serve`` can tune."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Worker processes in the shared pool.
    jobs: int = 1
    #: Per-tenant queue bound (admission control).
    queue_depth: int = 64
    task_timeout: Optional[float] = None
    retries: int = 2
    retry_backoff: float = 0.0
    breaker_window: int = 8
    breaker_threshold: int = 4
    breaker_cooldown: int = 10
    journal: Optional[Path] = None
    cache_dir: Optional[Path] = None
    #: When set, the bound port is written here (CI/tests bind port 0).
    port_file: Optional[Path] = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ConfigurationError("jobs must be a positive process count")
        if self.port < 0 or self.port > 65535:
            raise ConfigurationError("port must be in [0, 65535]")
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


@dataclass
class _Dispatched:
    """Dispatcher-side record of one in-flight pool task."""

    job: Job


class ServiceApp:
    """The service's state machine, HTTP-independent and test-friendly.

    Everything observable over HTTP is callable directly:
    :meth:`submit`, :meth:`job_status`, :meth:`job_result`,
    :meth:`stats`. The HTTP layer is a thin translation.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self._lock = threading.Lock()
        self.jobs: Dict[str, Job] = {}
        self.scheduler = DrrScheduler(depth=config.queue_depth)
        self.breaker = CircuitBreaker(
            window=config.breaker_window,
            threshold=config.breaker_threshold,
            cooldown=config.breaker_cooldown,
        )
        self.cache = (
            ResultCache(config.cache_dir)
            if config.cache_dir is not None
            else None
        )
        self.journal = (
            JobJournal(config.journal) if config.journal is not None else None
        )
        self.pool = TaskPool(
            _execute_job,
            jobs=config.jobs,
            policy=config.policy,
            descriptor=_job_descriptor,
        )
        self.draining = False
        self.resumed_jobs = 0
        self._dispatch_seq = 0
        self._in_flight: Dict[int, _Dispatched] = {}
        #: Queued jobs with a deadline, by id: all the expiry scan walks.
        self._queued_deadlines: Dict[str, Job] = {}
        self._dispatcher: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._drained = threading.Event()
        if config.journal is not None:
            self._resume(config.journal)

    # -- boot-time resume ---------------------------------------------------

    def _resume(self, path: Path) -> None:
        """Rebuild job state from an existing journal (crash restart)."""
        specs, results, failures = load_job_records(path)
        sink = current_sink()
        for jid, spec_json in specs.items():
            spec = parse_job_spec(spec_json)
            if jid in results:
                job = Job(
                    id=jid,
                    spec=spec,
                    state="completed",
                    detail="journal",
                    result=results[jid],
                )
            elif jid in failures:
                record = failures[jid]
                job = Job(
                    id=jid,
                    spec=spec,
                    state=str(record.get("state", "failed")),
                    detail=str(record.get("detail", "failed")),
                    attempts=int(record.get("attempts", 0)),
                )
            else:
                # Accepted but unfinished: re-enqueue. The result cache
                # usually answers instantly if the simulation finished
                # but the outcome line was lost to the crash.
                job = Job(id=jid, spec=spec, state="queued", detail="resumed")
                if spec.deadline_s is not None:
                    job.expires_at = time.monotonic() + spec.deadline_s
                cached = self._cache_load(spec)
                if cached is not None:
                    job.state = "cached"
                    job.detail = "result cache"
                    job.result = cached
                    if self.journal is not None:
                        self.journal.record_done(jid, cached)
                else:
                    self.scheduler.offer(job)
                    if job.expires_at is not None:
                        self._queued_deadlines[jid] = job
                self.resumed_jobs += 1
                if sink.wants(_TRACE_RUNNER):
                    sink.emit(job_event("resumed", spec.tenant, jid))
            self.jobs[jid] = job
        if results or failures or specs:
            for jid, result in results.items():
                self._cache_store(self.jobs[jid].spec, result)

    # -- cache helpers ------------------------------------------------------

    def _cache_load(self, spec: JobSpec) -> Optional[PairResult]:
        if self.cache is None:
            return None
        return self.cache.load(spec.pair, spec.config)

    def _cache_store(self, spec: JobSpec, result: object) -> None:
        if self.cache is None or not isinstance(result, PairResult):
            return
        if self.cache.load(spec.pair, spec.config) is None:
            self.cache.store(spec.pair, spec.config, result)

    # -- admission (called from the event loop) -----------------------------

    def submit(self, payload: object) -> tuple:
        """Admit one submission body; ``(http_status, body, headers)``."""
        try:
            spec = parse_job_spec(payload)
        except ConfigurationError as error:
            return 400, {"error": str(error)}, {}
        jid = job_id(spec, code_version())
        sink = current_sink()
        with self._lock:
            existing = self.jobs.get(jid)
            if existing is not None:
                # Idempotent resubmission: one spec is one job.
                status = 200 if existing.terminal else 202
                return status, existing.to_json(), {}
            cached = self._cache_load(spec)
            if cached is not None:
                job = Job(
                    id=jid,
                    spec=spec,
                    state="cached",
                    detail="result cache",
                    result=cached,
                )
                self.jobs[jid] = job
                if self.journal is not None:
                    self.journal.record_spec(jid, spec.to_json())
                    self.journal.record_done(jid, cached)
                if sink.wants(_TRACE_RUNNER):
                    sink.emit(job_event("cached", spec.tenant, jid))
                return 200, job.to_json(), {}
            if self.draining:
                return (
                    503,
                    {"error": "service is draining; resubmit elsewhere"},
                    {},
                )
            if self.breaker.state == "open":
                # Degraded mode: cache-only serving while the pool is
                # presumed unhealthy. Uncached work is refused with a
                # retry hint spanning the remaining cooldown.
                retry_after = self.breaker.cooldown * _PUMP_WAIT_S
                if sink.wants(_TRACE_RUNNER):
                    sink.emit(
                        job_event(
                            "rejected", spec.tenant, jid,
                            detail="circuit open",
                        )
                    )
                return (
                    503,
                    {
                        "error": "circuit breaker open: cache-only serving",
                        "retry_after_s": retry_after,
                    },
                    {"retry-after": f"{retry_after:g}"},
                )
            job = Job(id=jid, spec=spec)
            if spec.deadline_s is not None:
                job.expires_at = time.monotonic() + spec.deadline_s
            admission = self.scheduler.offer(job)
            if not admission.accepted:
                if sink.wants(_TRACE_RUNNER):
                    sink.emit(
                        queue_event("reject", spec.tenant, admission.depth)
                    )
                    sink.emit(
                        job_event(
                            "rejected", spec.tenant, jid,
                            detail="queue full",
                        )
                    )
                retry_after = admission.retry_after_s or 0.0
                return (
                    429,
                    {
                        "error": (
                            f"tenant {spec.tenant} queue is full "
                            f"({admission.depth} jobs)"
                        ),
                        "retry_after_s": retry_after,
                    },
                    {"retry-after": f"{retry_after:g}"},
                )
            self.jobs[jid] = job
            if job.expires_at is not None:
                self._queued_deadlines[jid] = job
            if self.journal is not None:
                self.journal.record_spec(jid, spec.to_json())
            if sink.wants(_TRACE_RUNNER):
                sink.emit(
                    queue_event("enqueue", spec.tenant, admission.depth)
                )
                sink.emit(job_event("submitted", spec.tenant, jid))
            self.pool.wake()
            return 202, job.to_json(), {}

    # -- reads --------------------------------------------------------------

    def job_status(self, jid: str) -> Optional[dict]:
        with self._lock:
            job = self.jobs.get(jid)
            return job.to_json() if job is not None else None

    def job_result(self, jid: str) -> tuple:
        """``(http_status, body)`` for the result endpoint."""
        with self._lock:
            job = self.jobs.get(jid)
            if job is None:
                return 404, {"error": f"unknown job {jid}"}
            if job.state in ("completed", "cached"):
                return 200, {
                    "job": jid,
                    "state": job.state,
                    "result": result_to_jsonable(job.result),
                }
            if job.terminal:
                return 409, {
                    "error": f"job {jid} ended in state {job.state}",
                    "state": job.state,
                    "detail": job.detail,
                }
            return 409, {
                "error": f"job {jid} is not finished",
                "state": job.state,
            }

    def stats(self) -> dict:
        with self._lock:
            states: Dict[str, int] = {}
            for job in self.jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            return {
                "jobs": states,
                "queues": self.scheduler.depths(),
                "backlog": self.scheduler.backlog,
                "breaker": {
                    "state": self.breaker.state,
                    "failures": self.breaker.failures,
                },
                "pool": {
                    "workers_alive": self.pool.alive_workers(),
                    "in_flight": self.pool.in_flight,
                },
                "draining": self.draining,
                "resumed_jobs": self.resumed_jobs,
            }

    def health(self) -> dict:
        return {"status": "ok"}

    def readiness(self) -> tuple:
        """``(http_status, body)`` for /readyz."""
        with self._lock:
            dispatcher_alive = (
                self._dispatcher is not None and self._dispatcher.is_alive()
            )
            pool_ok = self.pool.idle or self.pool.alive_workers() > 0
            ready = dispatcher_alive and pool_ok and not self.draining
            body = {
                "status": "ready" if ready else "unready",
                "dispatcher_alive": dispatcher_alive,
                "pool_workers": self.pool.alive_workers(),
                "draining": self.draining,
                "breaker": self.breaker.state,
            }
            return (200 if ready else 503), body

    # -- the dispatcher thread ---------------------------------------------

    def start(self) -> None:
        """Start the dispatcher thread (idempotent)."""
        if self._dispatcher is not None:
            return
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-dispatcher", daemon=True
        )
        self._dispatcher.start()

    def drain(self) -> None:
        """Stop admission; the dispatcher finishes in-flight work."""
        with self._lock:
            self.draining = True
        self.pool.wake()

    def stop(self) -> None:
        """Drain, wait for the dispatcher, journal the drain, close."""
        self.drain()
        self._stop.set()
        self.pool.wake()
        if self._dispatcher is not None:
            self._dispatcher.join()
        self.pool.close()
        if self.journal is not None:
            with self._lock:
                self.journal.note(
                    {
                        "what": "drain",
                        "in_flight": len(self._in_flight),
                        "backlog": self.scheduler.backlog,
                    }
                )
                self.journal.close()
                self.journal = None

    def _dispatch_loop(self) -> None:
        while True:
            with self._lock:
                self._expire_queued()
                if not self.draining:
                    self._fill_pool()
                # Drain waits for the pool to go fully idle -- a retry
                # sitting out its backoff window is still in flight.
                stop_now = self._stop.is_set() and self.pool.idle
                wait = self._pump_wait()
            if stop_now:
                self._drained.set()
                return
            events = self.pool.pump(wait)
            with self._lock:
                for event in events:
                    self._apply(event)
                self.breaker.on_cycle()

    def _pump_wait(self) -> float:
        """``_PUMP_WAIT_S``, cut short by the earliest queued deadline."""
        if not self._queued_deadlines:
            return _PUMP_WAIT_S
        earliest = min(
            job.expires_at for job in self._queued_deadlines.values()
        )
        return min(_PUMP_WAIT_S, max(earliest - time.monotonic(), 0.0))

    def _expire_queued(self) -> None:
        now = time.monotonic()
        due = [
            job for job in self._queued_deadlines.values()
            if now >= job.expires_at
        ]
        for job in due:
            del self._queued_deadlines[job.id]
            if self.scheduler.remove(job):
                self._expire(job)

    def _expire(self, job: Job) -> None:
        job.state = "expired"
        job.detail = "deadline passed before dispatch"
        if self.journal is not None:
            self.journal.record_fail(
                job.id,
                {
                    "state": "expired",
                    "detail": job.detail,
                    "attempts": job.attempts,
                },
            )
        sink = current_sink()
        if sink.wants(_TRACE_RUNNER):
            sink.emit(job_event("expired", job.spec.tenant, job.id))

    def _fill_pool(self) -> None:
        sink = current_sink()
        while (
            self.pool.in_flight + self.pool.pending < self.config.jobs
            and self.breaker.allows_dispatch()
        ):
            job = self.scheduler.next_job()
            if job is None:
                return
            timeout = self.config.task_timeout
            if job.expires_at is not None:
                self._queued_deadlines.pop(job.id, None)
                remaining = job.expires_at - time.monotonic()
                if remaining <= 0:
                    self._expire(job)
                    continue
                timeout = (
                    remaining
                    if timeout is None
                    else min(timeout, remaining)
                )
            index = self._dispatch_seq
            self._dispatch_seq += 1
            self._in_flight[index] = _Dispatched(job=job)
            job.state = "dispatched"
            job.detail = None
            self.pool.submit(
                index, (job.spec.pair, job.spec.config), timeout=timeout
            )
            self.breaker.on_dispatch()
            if sink.wants(_TRACE_RUNNER):
                sink.emit(
                    queue_event(
                        "dispatch",
                        job.spec.tenant,
                        self.scheduler.tenant_depth(job.spec.tenant),
                    )
                )
                sink.emit(job_event("dispatched", job.spec.tenant, job.id))

    def _apply(self, event: PoolEvent) -> None:
        entry = self._in_flight.get(event.index)
        if entry is None:  # pragma: no cover - pool/app accounting skew
            return
        job = entry.job
        sink = current_sink()
        if event.kind == "retry":
            job.attempts = event.attempt - 1
            job.detail = (
                f"attempt {event.attempt - 1} {event.reason}; retrying"
            )
            self.breaker.record(event.reason)
            return
        del self._in_flight[event.index]
        if event.kind == "done":
            job.attempts += 1
            job.state = "completed"
            job.detail = None
            job.result = event.result
            self._cache_store(job.spec, event.result)
            if self.journal is not None:
                self.journal.record_done(job.id, event.result)
            self.breaker.record(None)
            if sink.wants(_TRACE_RUNNER):
                sink.emit(job_event("completed", job.spec.tenant, job.id))
            return
        failure = event.failure
        job.attempts = failure.attempts if failure is not None else job.attempts
        job.state = "failed"
        job.detail = (
            f"{failure.reason}: {failure.message}"
            if failure is not None
            else event.reason
        )
        if self.journal is not None:
            self.journal.record_fail(
                job.id,
                {
                    "state": "failed",
                    "detail": job.detail,
                    "attempts": job.attempts,
                },
            )
        self.breaker.record(event.reason or (failure.reason if failure else None))
        if sink.wants(_TRACE_RUNNER):
            sink.emit(
                job_event(
                    "failed", job.spec.tenant, job.id, detail=job.detail
                )
            )


# ---------------------------------------------------------------------------
# HTTP wiring
# ---------------------------------------------------------------------------


def _router(app: ServiceApp) -> http.Router:
    router = http.Router()

    async def submit(request: http.Request) -> http.Response:
        try:
            payload = request.json()
        except ValueError as error:
            return http.error_response(400, f"bad JSON body: {error}")
        status, body, headers = app.submit(payload)
        return http.json_response(status, body, headers)

    async def status(request: http.Request) -> http.Response:
        body = app.job_status(request.params["jid"])
        if body is None:
            return http.error_response(
                404, f"unknown job {request.params['jid']}"
            )
        return http.json_response(200, body)

    async def result(request: http.Request) -> http.Response:
        code, body = app.job_result(request.params["jid"])
        return http.json_response(code, body)

    async def events(request: http.Request) -> http.Response:
        jid = request.params["jid"]
        if app.job_status(jid) is None:
            return http.error_response(404, f"unknown job {jid}")

        async def stream() -> AsyncIterator[bytes]:
            last: Optional[str] = None
            while True:
                body = app.job_status(jid)
                if body is None:  # pragma: no cover - jobs are never dropped
                    return
                line = json.dumps(body, separators=(",", ":"))
                if line != last:
                    last = line
                    yield line.encode("utf-8") + b"\n"
                if body["terminal"]:
                    return
                await asyncio.sleep(_WATCH_POLL_S)

        return http.Response(
            status=200, content_type="application/x-ndjson", stream=stream()
        )

    async def stats(request: http.Request) -> http.Response:
        return http.json_response(200, app.stats())

    async def healthz(request: http.Request) -> http.Response:
        return http.json_response(200, app.health())

    async def readyz(request: http.Request) -> http.Response:
        code, body = app.readiness()
        return http.json_response(code, body)

    router.add("POST", "/v1/jobs", submit)
    router.add("GET", "/v1/jobs/{jid}", status)
    router.add("GET", "/v1/jobs/{jid}/result", result)
    router.add("GET", "/v1/jobs/{jid}/events", events)
    router.add("GET", "/v1/stats", stats)
    router.add("GET", "/healthz", healthz)
    router.add("GET", "/readyz", readyz)
    return router


async def _serve(app: ServiceApp) -> int:
    router = _router(app)
    request_counter = {"n": 0}
    plan = faults.current_plan()

    async def pre_handler(request: http.Request) -> None:
        delay = plan.stall_seconds(request.index)
        if delay > 0:
            # Slow-client chaos: this coroutine stalls; every other
            # connection keeps being served concurrently.
            await asyncio.sleep(delay)

    async def on_connection(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        index = request_counter["n"]
        request_counter["n"] += 1
        await http.serve_connection(
            router, reader, writer, index=index, pre_handler=pre_handler
        )

    server = await asyncio.start_server(
        on_connection, app.config.host, app.config.port
    )
    port = server.sockets[0].getsockname()[1]
    if app.config.port_file is not None:
        app.config.port_file.parent.mkdir(parents=True, exist_ok=True)
        app.config.port_file.write_text(f"{port}\n")
    app.start()

    loop = asyncio.get_running_loop()
    shutdown = asyncio.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, shutdown.set)
    print(
        f"[serve] listening on http://{app.config.host}:{port} "
        f"(pool={app.config.jobs}, depth={app.config.queue_depth}, "
        f"resumed={app.resumed_jobs})",
        flush=True,
    )
    await shutdown.wait()
    print("[serve] drain: admission closed, finishing in-flight jobs",
          flush=True)
    server.close()
    await server.wait_closed()
    # stop() joins the dispatcher (it exits once in-flight work is
    # done), closes the pool, and journals the drain marker.
    await asyncio.to_thread(app.stop)
    print("[serve] drained cleanly", flush=True)
    return 0


def run_service(config: ServiceConfig) -> int:
    """Run the service until SIGTERM/SIGINT; returns the exit code."""
    app = ServiceApp(config)
    return asyncio.run(_serve(app))
