"""Retry backoff determinism and the incremental TaskPool contract."""

import threading
import time

import pytest

from repro import faults, telemetry
from repro.errors import ConfigurationError
from repro.experiments.supervisor import (
    SupervisionPolicy,
    TaskPool,
    backoff_delay,
)

# -- picklable task callables (pool workers fork) ---------------------------


def _double(value):
    return value * 2


def _fail(value):
    raise ValueError(f"no good: {value}")


class TestBackoffDelay:
    def test_zero_base_means_no_delay(self):
        assert backoff_delay(0.0, 1) == 0.0
        assert backoff_delay(0.0, 5, index=3, seed=7) == 0.0

    def test_delay_is_deterministic(self):
        first = backoff_delay(0.5, 2, index=3, seed=42)
        second = backoff_delay(0.5, 2, index=3, seed=42)
        assert first == second

    def test_delay_lies_in_the_equal_jitter_window(self):
        """Attempt n's delay is in [0.5, 1.0) x base x 2^(n-1)."""
        for attempt in (1, 2, 3, 4):
            window = 0.25 * 2.0 ** (attempt - 1)
            for index in range(8):
                delay = backoff_delay(0.25, attempt, index=index, seed=0)
                assert window * 0.5 <= delay < window

    def test_jitter_varies_by_index_seed_and_attempt(self):
        base = backoff_delay(1.0, 1, index=0, seed=0)
        assert backoff_delay(1.0, 1, index=1, seed=0) != base
        assert backoff_delay(1.0, 1, index=0, seed=1) != base
        # Different attempts live in different windows anyway.
        assert backoff_delay(1.0, 2, index=0, seed=0) >= 1.0

    def test_invalid_attempt_yields_zero(self):
        assert backoff_delay(1.0, 0) == 0.0


class TestPolicyDelay:
    def test_policy_routes_its_seed_and_base(self):
        policy = SupervisionPolicy(retry_backoff=0.5, backoff_seed=9)
        assert policy.delay_for(4, 2) == backoff_delay(
            0.5, 2, index=4, seed=9
        )

    def test_default_policy_has_no_backoff(self):
        assert SupervisionPolicy().delay_for(0, 1) == 0.0

    def test_negative_backoff_is_rejected(self):
        with pytest.raises(ConfigurationError):
            SupervisionPolicy(retry_backoff=-0.1)


def _drain(pool, expected, timeout=60.0):
    """Pump until ``expected`` tasks settle (done or failed)."""
    settled = []
    deadline = time.monotonic() + timeout
    while len(settled) < expected:
        assert time.monotonic() < deadline, f"settled only {settled}"
        for event in pool.pump(0.05):
            if event.kind in ("done", "failed"):
                settled.append(event)
    return settled


class TestTaskPool:
    def test_submit_pump_returns_results_incrementally(self):
        with TaskPool(_double, jobs=2) as pool:
            pool.submit(0, 10)
            (first,) = _drain(pool, 1)
            assert (first.kind, first.index, first.result) == ("done", 0, 20)
            # The pool stays up between submissions.
            pool.submit(1, 11)
            pool.submit(2, 12)
            results = {e.index: e.result for e in _drain(pool, 2)}
            assert results == {1: 22, 2: 24}
            assert pool.idle

    def test_task_error_is_a_failed_event_with_taxonomy(self):
        with TaskPool(_fail, jobs=1,
                      policy=SupervisionPolicy(retries=0)) as pool:
            pool.submit(0, "x")
            (event,) = _drain(pool, 1)
            assert event.kind == "failed"
            assert event.failure.reason == "error"
            assert "no good" in event.failure.message

    def test_crash_is_retried_with_backoff_and_recovers(self):
        plan = faults.FaultPlan(
            specs=(faults.FaultSpec(kind="crash", index=0, count=1),)
        )
        policy = SupervisionPolicy(retries=1, retry_backoff=0.05)
        with faults.fault_injection(plan):
            with TaskPool(_double, jobs=1, policy=policy) as pool:
                pool.submit(0, 0)
                events = []
                deadline = time.monotonic() + 60.0
                while not any(e.kind == "done" for e in events):
                    assert time.monotonic() < deadline
                    events.extend(pool.pump(0.05))
        retries = [e for e in events if e.kind == "retry"]
        assert len(retries) == 1
        assert retries[0].reason == "crash"
        assert retries[0].attempt == 2
        # The announced backoff is the policy's deterministic delay.
        assert retries[0].backoff_s == policy.delay_for(0, 1)
        (done,) = [e for e in events if e.kind == "done"]
        assert done.result == 0

    def test_per_task_timeout_override_beats_the_policy(self):
        plan = faults.FaultPlan(
            specs=(faults.FaultSpec(kind="hang", index=0, count=2),)
        )
        policy = SupervisionPolicy(task_timeout=120.0, retries=0)
        with faults.fault_injection(plan):
            with TaskPool(_double, jobs=1, policy=policy) as pool:
                start = time.monotonic()
                pool.submit(0, 0, timeout=0.3)
                (event,) = _drain(pool, 1)
                elapsed = time.monotonic() - start
        assert event.kind == "failed"
        assert event.failure.reason == "timeout"
        assert elapsed < 60.0  # the 120 s policy budget never applied

    def test_closed_pool_refuses_work(self):
        pool = TaskPool(_double, jobs=1)
        pool.close()
        with pytest.raises(ConfigurationError):
            pool.submit(0, 1)
        with pytest.raises(ConfigurationError):
            pool.pump()
        pool.close()  # idempotent

    def test_invalid_parameters_are_rejected(self):
        with pytest.raises(ConfigurationError):
            TaskPool(_double, jobs=0)
        with TaskPool(_double, jobs=1) as pool:
            with pytest.raises(ConfigurationError):
                pool.submit(0, 1, timeout=0.0)

    def test_pending_and_in_flight_accounting(self):
        with TaskPool(_double, jobs=1) as pool:
            assert pool.idle
            pool.submit(0, 1)
            pool.submit(1, 2)
            assert pool.pending == 2
            _drain(pool, 2)
            assert pool.pending == 0
            assert pool.in_flight == 0


class TestIdlePump:
    """An idle pump sleeps on its wake fd instead of returning at once
    (which left the service dispatcher spinning a core)."""

    def test_idle_pump_blocks_for_the_whole_wait(self):
        with TaskPool(_double, jobs=1) as pool:
            start = time.monotonic()
            assert pool.pump(0.2) == []
            elapsed = time.monotonic() - start
        assert 0.19 <= elapsed < 1.0

    def test_wake_from_another_thread_ends_the_wait(self):
        with TaskPool(_double, jobs=1) as pool:
            woken = []

            def wake_later():
                time.sleep(0.1)
                woken.append(time.monotonic())
                pool.wake()

            waker = threading.Thread(target=wake_later)
            waker.start()
            assert pool.pump(10.0) == []
            returned = time.monotonic()
            waker.join(timeout=10.0)
            assert not waker.is_alive()
        assert 0.0 <= returned - woken[0] < 0.05

    def test_a_wake_before_the_pump_is_kept_then_consumed(self):
        with TaskPool(_double, jobs=1) as pool:
            pool.wake()
            pool.wake()
            start = time.monotonic()
            pool.pump(10.0)
            assert time.monotonic() - start < 1.0
            start = time.monotonic()
            pool.pump(0.1)
            assert time.monotonic() - start >= 0.09
        pool.wake()  # closed: a no-op, not an error


class TestRetryTelemetry:
    def test_task_retry_event_carries_the_backoff(self):
        plan = faults.FaultPlan(
            specs=(faults.FaultSpec(kind="crash", index=0, count=1),)
        )
        policy = SupervisionPolicy(retries=1, retry_backoff=0.05,
                                   backoff_seed=3)
        sink = telemetry.RingBufferSink()
        with telemetry.tracing(sink), faults.fault_injection(plan):
            with TaskPool(_double, jobs=1, policy=policy) as pool:
                pool.submit(0, 0)
                _drain(pool, 1)
        retries = [
            event for event in sink.events
            if event["event"] == "task_retry"
        ]
        assert len(retries) == 1
        assert retries[0]["reason"] == "crash"
        assert retries[0]["backoff_s"] == policy.delay_for(0, 1)
        telemetry.validate_event(retries[0])
