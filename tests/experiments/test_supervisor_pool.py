"""Persistent pool supervision and the framed worker protocol.

The pool changes only *where* a task runs (a long-lived worker serving
many tasks over one pipe), never what it computes -- so results must be
bit-identical to the inline path under every failure mode the
supervisor knows: crash, hang, garbage result, drain. The frame tests
pin the wire contract: a worker that dies mid-write leaves a torn frame
that classifies as a crash *immediately*, instead of wedging the parent
until the task timeout.
"""

import multiprocessing
import os
import pickle
import signal
import struct
import time

import pytest

from repro import faults
from repro.experiments import supervisor as supervisor_module
from repro.experiments.supervisor import (
    _FRAME_ERRORS,
    SupervisionPolicy,
    Supervisor,
    _recv_frame,
    _send_frame,
)

# -- picklable task functions (forked workers must import them) -------------


def _double(value):
    return value * 2


def _pid_of(value):
    del value
    return float(os.getpid())


def _return_nan(value):
    del value
    return float("nan")


def _nap(seconds):
    time.sleep(seconds)
    return seconds


def _nap_then_crash_on_slow(seconds):
    """Return fast tasks; a slow one dies mid-task like a killed worker."""
    if seconds:
        time.sleep(seconds)
        os._exit(faults.CRASH_EXIT_CODE)
    return seconds


class TestFrameProtocol:
    def test_round_trip_preserves_structure(self):
        parent, child = multiprocessing.Pipe(duplex=False)
        payload = ("ok", {"nested": [1.5, float("inf")], "t": (None, b"x")})
        _send_frame(child, payload)
        child.close()
        assert _recv_frame(parent) == payload
        parent.close()

    def test_clean_close_raises_frame_error(self):
        parent, child = multiprocessing.Pipe(duplex=False)
        child.close()
        with pytest.raises(_FRAME_ERRORS):
            _recv_frame(parent)
        parent.close()

    def test_torn_frame_raises_frame_error(self):
        parent, child = multiprocessing.Pipe(duplex=False)
        payload = pickle.dumps(("ok", list(range(256))))
        # A length header promising more bytes than ever arrive: what a
        # worker killed mid-send_bytes leaves behind.
        os.write(child.fileno(), struct.pack("!i", len(payload)))
        os.write(child.fileno(), payload[: len(payload) // 2])
        child.close()
        with pytest.raises(_FRAME_ERRORS):
            _recv_frame(parent)
        parent.close()

    def test_garbage_frame_raises_frame_error(self):
        parent, child = multiprocessing.Pipe(duplex=False)
        child.send_bytes(b"not a pickle at all")
        child.close()
        with pytest.raises(_FRAME_ERRORS):
            _recv_frame(parent)
        parent.close()


class TestPoolMode:
    def test_pool_matches_inline_and_isolated(self):
        items = list(enumerate(range(10)))
        inline = Supervisor(_double, items, jobs=1).run()
        pooled = Supervisor(_double, items, jobs=3).run()
        assert pooled.results == inline.results
        assert pooled.failures == [] and pooled.skipped == []

    def test_workers_persist_across_tasks(self):
        run = Supervisor(_pid_of, list(enumerate(range(12))), jobs=2).run()
        pids = set(run.results.values())
        # 12 tasks served by at most 2 long-lived workers: the pool
        # reuses processes instead of forking per task.
        assert len(run.results) == 12
        assert 1 <= len(pids) <= 2

    def test_worker_exits_when_its_parent_goes_away(self):
        # A parent killed by SIGKILL sends no shutdown frame; its end of
        # the pipe just closes. The worker must see EOF and exit rather
        # than block forever on a pipe end it inherited at fork.
        pool = supervisor_module.TaskPool(_double, jobs=1)
        worker = pool._spawn()
        try:
            worker.conn.close()
            worker.process.join(10.0)
            assert not worker.process.is_alive()
            assert worker.process.exitcode == 0
        finally:
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join()
            pool.close()

    def test_crashed_worker_is_respawned_and_task_retried(self):
        with faults.fault_injection(faults.parse_fault_plan("crash@1")):
            run = Supervisor(
                _double,
                list(enumerate(range(6))),
                jobs=2,
                policy=SupervisionPolicy(retries=2),
            ).run()
        assert run.results == {i: i * 2 for i in range(6)}
        assert run.retries == 1 and run.failures == []

    def test_hung_worker_times_out_and_recovers(self):
        with faults.fault_injection(faults.parse_fault_plan("hang@0")):
            run = Supervisor(
                _double,
                list(enumerate(range(4))),
                jobs=2,
                policy=SupervisionPolicy(task_timeout=1.0, retries=1),
            ).run()
        assert run.results == {i: i * 2 for i in range(4)}
        assert run.retries == 1 and run.failures == []

    def test_exhausted_retries_fail_with_crash_reason(self):
        with faults.fault_injection(faults.parse_fault_plan("crash@0*9")):
            run = Supervisor(
                _double,
                [(0, 1)],
                jobs=2,
                policy=SupervisionPolicy(retries=1),
            ).run()
        assert run.results == {}
        assert [f.reason for f in run.failures] == ["crash"]
        assert run.failures[0].attempts == 2

    def test_nan_result_is_invariant_violation(self):
        run = Supervisor(
            _return_nan,
            [(0, "x")],
            jobs=2,
            policy=SupervisionPolicy(retries=0),
        ).run()
        assert [f.reason for f in run.failures] == ["invariant"]

    def test_drain_skips_everything_unlaunched(self):
        supervisor = Supervisor(_double, list(enumerate(range(8))), jobs=2)
        supervisor.request_drain()
        run = supervisor.run()
        assert run.results == {}
        assert run.skipped == list(range(8))

    def test_drain_from_on_result_finishes_in_flight_work(self):
        def drain_after_first(index, item, result):
            supervisor.request_drain()

        # Task 0 returns at once; task 1 is still running when the
        # drain lands, so it finishes and is accepted.
        items = [(0, 0.0), (1, 0.5)] + [(i, 0.0) for i in range(2, 6)]
        supervisor = Supervisor(
            _nap, items, jobs=2, on_result=drain_after_first
        )
        run = supervisor.run()
        assert run.results == {0: 0.0, 1: 0.5}
        assert run.skipped == [2, 3, 4, 5]
        assert run.interrupted
        assert run.failures == [] and run.retries == 0

    def test_crash_in_flight_at_drain_is_a_failure_not_a_retry(self):
        def drain_after_first(index, item, result):
            supervisor.request_drain()

        # Task 1's worker dies after the drain has landed; with retries
        # left it would be retried, but nothing starts after a drain.
        items = [(0, 0.0), (1, 0.5), (2, 0.0)]
        supervisor = Supervisor(
            _nap_then_crash_on_slow,
            items,
            jobs=2,
            policy=SupervisionPolicy(retries=2),
            on_result=drain_after_first,
        )
        run = supervisor.run()
        assert run.results == {0: 0.0}
        assert [(f.index, f.reason, f.attempts) for f in run.failures] == [
            (1, "crash", 1)
        ]
        assert run.retries == 0
        assert run.skipped == [2]
        assert run.interrupted

    def test_second_signal_kills_in_flight_work(self):
        def interrupt_twice(index, item, result):
            supervisor._on_signal(signal.SIGINT, None)
            supervisor._on_signal(signal.SIGINT, None)

        # Task 1 would nap for a minute; the repeated interrupt kills it
        # at once, as a crash that is not retried.
        items = [(0, 0.0), (1, 60.0), (2, 0.0)]
        supervisor = Supervisor(
            _nap, items, jobs=2, on_result=interrupt_twice
        )
        started = time.monotonic()
        run = supervisor.run()
        assert time.monotonic() - started < 30.0
        assert run.results == {0: 0.0}
        assert [(f.index, f.reason, f.message) for f in run.failures] == [
            (1, "crash", "killed by repeated interrupt")
        ]
        assert run.skipped == [2]
        assert run.interrupted


def _tearing_send_frame(real):
    """Wrap `_send_frame` so result reports die mid-write.

    Request frames (parent -> worker) and shutdown frames pass through
    untouched; an ``("ok", ...)`` report writes its length header plus
    half the payload, then kills the process -- exactly the torn frame
    a worker crashing inside ``send_bytes`` leaves in the pipe.
    """

    def send(conn, message):
        if isinstance(message, tuple) and message and message[0] == "ok":
            payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
            os.write(conn.fileno(), struct.pack("!i", len(payload)))
            os.write(conn.fileno(), payload[: len(payload) // 2])
            os._exit(1)
        real(conn, message)

    return send


class TestTornFrameRegression:
    """A worker crash mid-frame is a crash, not a hang (satellite of
    the framed-protocol change: the parent must classify the torn frame
    the moment the pipe closes, long before any task timeout)."""

    def test_mid_frame_crash_classifies_as_crash_fast(self, monkeypatch):
        monkeypatch.setattr(
            supervisor_module,
            "_send_frame",
            _tearing_send_frame(_send_frame),
        )
        started = time.monotonic()
        run = Supervisor(
            _double,
            [(0, 1)],
            jobs=2,
            policy=SupervisionPolicy(task_timeout=60.0, retries=0),
        ).run()
        elapsed = time.monotonic() - started
        assert [f.reason for f in run.failures] == ["crash"]
        assert "exitcode" in run.failures[0].message
        # Detection came from the torn frame, not the 60s timeout.
        assert elapsed < 30.0
