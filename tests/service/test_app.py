"""ServiceApp behavior: lifecycle, dedupe, backpressure, chaos.

The app is exercised in-process (no HTTP): ``submit`` / ``job_status``
/ ``job_result`` are exactly what the handlers call, so everything
observable over the wire is asserted here without socket timing.
"""

import contextlib
import pickle
import time

import pytest

from repro import faults, telemetry
from repro.errors import ConfigurationError
from repro.service import app as app_module
from repro.service.app import ServiceApp, ServiceConfig

#: Sub-millisecond simulation windows; worker spawn dominates runtime.
_TINY = {
    "sample_period": 20_000,
    "min_instructions": 60_000,
    "warmup_instructions": 20_000,
    "st_min_instructions": 60_000,
}

_WAIT_S = 60.0


def _payload(tenant, pair="gcc:eon", levels=(0.0,), deadline=None,
             **config_extra):
    config = dict(_TINY)
    config["fairness_levels"] = list(levels)
    config.update(config_extra)
    payload = {
        "tenant": tenant,
        "pair": pair,
        "scale": "quick",
        "config": config,
    }
    if deadline is not None:
        payload["deadline_s"] = deadline
    return payload


@contextlib.contextmanager
def _running(tmp_path=None, *, start=True, **overrides):
    kwargs = dict(overrides)
    if tmp_path is not None:
        kwargs.setdefault("journal", tmp_path / "jobs.jsonl")
        kwargs.setdefault("cache_dir", tmp_path / "cache")
    app = ServiceApp(ServiceConfig(jobs=1, **kwargs))
    try:
        if start:
            app.start()
        yield app
    finally:
        app.stop()


def _await_state(app, jid, *states, timeout=_WAIT_S):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        body = app.job_status(jid)
        if body is not None and body["state"] in states:
            return body
        time.sleep(0.02)
    raise AssertionError(
        f"job {jid} never reached {states}; last seen {app.job_status(jid)}"
    )


def _await(predicate, what, timeout=_WAIT_S, poll=0.02):
    """Wait for ``predicate``; returns when it first held."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return time.monotonic()
        time.sleep(poll)
    raise AssertionError(f"timed out waiting for {what}")


class TestServiceConfig:
    @pytest.mark.parametrize(
        "bad",
        [
            {"jobs": 0},
            {"port": -1},
            {"task_timeout": 0.0},
            {"task_timeout": float("nan")},
            {"task_timeout": float("inf")},
            {"retry_backoff": float("nan")},
            {"retry_backoff": float("inf")},
        ],
    )
    def test_invalid_settings_are_refused(self, bad):
        with pytest.raises(ConfigurationError):
            ServiceConfig(**bad)


class TestLifecycle:
    def test_submit_execute_serve(self, tmp_path):
        with _running(tmp_path) as app:
            status, body, _headers = app.submit(_payload("acme"))
            assert status == 202
            assert body["state"] == "queued"
            jid = body["job"]
            final = _await_state(app, jid, "completed")
            assert final["attempts"] == 1
            code, result_body = app.job_result(jid)
            assert code == 200
            runs = result_body["result"]["runs"]
            assert list(runs) == ["0.0"]
            stats = app.stats()
            assert stats["jobs"] == {"completed": 1}
            assert stats["backlog"] == 0

    def test_invalid_spec_is_a_400(self):
        with _running(start=False) as app:
            status, body, _headers = app.submit({"tenant": "acme"})
            assert status == 400
            assert "pair" in body["error"]
            assert app.jobs == {}

    def test_resubmission_is_idempotent(self, tmp_path):
        with _running(tmp_path) as app:
            _status, first, _headers = app.submit(_payload("acme"))
            jid = first["job"]
            _await_state(app, jid, "completed")
            status, again, _headers = app.submit(_payload("acme"))
            assert status == 200  # terminal now
            assert again["job"] == jid
            assert len(app.jobs) == 1

    def test_unfinished_result_is_a_409_and_unknown_a_404(self):
        with _running(start=False) as app:
            _status, body, _headers = app.submit(_payload("acme"))
            code, result_body = app.job_result(body["job"])
            assert code == 409
            assert result_body["state"] == "queued"
            assert app.job_result("feedbeef" * 2)[0] == 404
            assert app.job_status("feedbeef" * 2) is None

    def test_readiness_tracks_the_dispatcher(self, tmp_path):
        with _running(tmp_path, start=False) as app:
            code, body = app.readiness()
            assert code == 503 and body["dispatcher_alive"] is False
            app.start()
            _await(lambda: app.readiness()[0] == 200, "readiness")
            app.drain()
            code, body = app.readiness()
            assert code == 503 and body["draining"] is True
            assert app.health() == {"status": "ok"}


class TestDedupe:
    def test_cached_cell_answers_instantly_for_another_tenant(
        self, tmp_path
    ):
        with _running(tmp_path) as app:
            _status, body, _headers = app.submit(_payload("alpha"))
            _await_state(app, body["job"], "completed")
            first = pickle.dumps(app.jobs[body["job"]].result)

            status, cached, _headers = app.submit(_payload("beta"))
            assert status == 200
            assert cached["state"] == "cached"
            assert cached["job"] != body["job"]  # tenant-scoped ids
            # ... but the shared computation is served bit-identically.
            assert pickle.dumps(app.jobs[cached["job"]].result) == first

    def test_without_a_cache_each_tenant_computes(self, tmp_path):
        with _running(cache_dir=None, journal=None) as app:
            _status, body, _headers = app.submit(_payload("alpha"))
            _await_state(app, body["job"], "completed")
            status, second, _headers = app.submit(_payload("beta"))
            assert status == 202
            _await_state(app, second["job"], "completed")


class TestBackpressure:
    def test_queue_full_is_a_429_with_retry_hint(self):
        with _running(start=False, queue_depth=1) as app:
            status, _body, _headers = app.submit(
                _payload("acme", levels=(0.0,))
            )
            assert status == 202
            status, body, headers = app.submit(
                _payload("acme", levels=(0.0, 0.5))
            )
            assert status == 429
            assert body["retry_after_s"] > 0
            assert float(headers["retry-after"]) == body["retry_after_s"]
            # The rejection left no job record: the client owns the retry.
            assert len(app.jobs) == 1

    def test_other_tenants_are_unaffected_by_a_full_queue(self):
        with _running(start=False, queue_depth=1) as app:
            app.submit(_payload("hog", levels=(0.0,)))
            assert app.submit(_payload("hog", levels=(0.0, 0.5)))[0] == 429
            assert app.submit(_payload("polite"))[0] == 202

    def test_draining_refuses_new_work(self):
        with _running(start=False) as app:
            app.drain()
            status, body, _headers = app.submit(_payload("acme"))
            assert status == 503
            assert "draining" in body["error"]


class TestDeadlines:
    def test_expired_queued_job_never_dispatches(self, tmp_path):
        with _running(tmp_path, start=False) as app:
            _status, body, _headers = app.submit(
                _payload("acme", deadline=0.05)
            )
            jid = body["job"]
            time.sleep(0.1)
            with app._lock:
                app._expire_queued()
            status = app.job_status(jid)
            assert status["state"] == "expired"
            assert status["terminal"] is True
            code, result_body = app.job_result(jid)
            assert code == 409
            assert result_body["state"] == "expired"

    def test_queued_job_expires_on_time_while_the_worker_is_busy(
        self, monkeypatch
    ):
        """The dispatcher's sleep ends at the earliest queued deadline.
        A pump wait far longer than the deadline makes a late expiry
        unmistakable."""
        monkeypatch.setattr(app_module, "_PUMP_WAIT_S", 1.0)
        plan = faults.FaultPlan(
            specs=(faults.FaultSpec(kind="hang", index=0, count=1),)
        )
        with faults.fault_injection(plan):
            with _running(task_timeout=2.0, retries=0) as app:
                _status, slow, _headers = app.submit(_payload("acme"))
                _await_state(app, slow["job"], "dispatched")
                submitted = time.monotonic()
                _status, body, _headers = app.submit(
                    _payload("acme", levels=(0.0, 0.5), deadline=0.1)
                )
                expired = _await(
                    lambda: app.job_status(body["job"])["state"] == "expired",
                    "the queued job to expire",
                    poll=0.005,
                )
                assert expired - submitted < 0.1 + 0.1
                assert app.job_status(slow["job"])["state"] == "dispatched"

    def test_deadline_caps_the_task_timeout(self):
        with _running(start=False, task_timeout=100.0) as app:
            _status, body, _headers = app.submit(
                _payload("acme", deadline=5.0)
            )
            with app._lock:
                app._fill_pool()
            # The submitted pool task carries the tighter deadline cap.
            (timeout,) = app.pool._timeouts.values()
            assert timeout is not None and timeout <= 5.0
            assert app.job_status(body["job"])["state"] == "dispatched"


class TestCircuitBreaker:
    def test_crash_burst_trips_then_recovers(self, tmp_path):
        """Two unrecoverable crashes open the breaker (503 cache-only),
        cooldown reaches half-open, and a healthy probe closes it."""
        plan = faults.FaultPlan(
            specs=(
                faults.FaultSpec(kind="crash", index=0, count=1),
                faults.FaultSpec(kind="crash", index=1, count=1),
            )
        )
        with faults.fault_injection(plan):
            with _running(
                tmp_path,
                retries=0,
                breaker_window=4,
                breaker_threshold=2,
                breaker_cooldown=4,
            ) as app:
                for levels in ((0.0,), (0.0, 0.5)):
                    app.submit(_payload("acme", levels=levels))
                _await(
                    lambda: app.breaker.state != "closed",
                    "breaker to trip",
                )
                # Degraded mode: uncached work is refused while open.
                if app.breaker.state == "open":
                    status, body, headers = app.submit(
                        _payload("acme", levels=(0.0, 0.25))
                    )
                    assert status == 503
                    assert "circuit breaker open" in body["error"]
                    assert "retry-after" in headers
                _await(
                    lambda: app.breaker.state in ("half_open", "closed"),
                    "cooldown to elapse",
                )
                # A healthy probe (task index 2: no fault) closes it.
                status, probe, _headers = app.submit(
                    _payload("acme", levels=(0.0, 0.75))
                )
                assert status == 202
                _await_state(app, probe["job"], "completed")
                _await(
                    lambda: app.breaker.state == "closed",
                    "breaker to close",
                )
                assert app.breaker.transitions[:2] == ["open", "half_open"]
                assert app.breaker.transitions[-1] == "closed"
                # The crashed jobs failed with the crash taxonomy.
                failed = [
                    job for job in app.jobs.values()
                    if job.state == "failed"
                ]
                assert len(failed) == 2
                for job in failed:
                    assert "crash" in (job.detail or "")

    def test_idle_open_breaker_keeps_its_cooldown_in_wall_time(self):
        """With an idle pool each breaker cycle is one full pump wait,
        so the ``retry_after_s`` hint (cooldown x wait) holds."""
        cooldown = 10
        plan = faults.FaultPlan(
            specs=(faults.FaultSpec(kind="crash", index=0, count=1),)
        )
        with faults.fault_injection(plan):
            with _running(
                retries=0,
                breaker_window=1,
                breaker_threshold=1,
                breaker_cooldown=cooldown,
            ) as app:
                app.submit(_payload("acme"))
                opened = _await(
                    lambda: app.breaker.state == "open",
                    "breaker to trip",
                    poll=0.002,
                )
                assert app.pool.idle
                half_open = _await(
                    lambda: app.breaker.state != "open",
                    "cooldown to elapse",
                    poll=0.002,
                )
        assert half_open - opened >= 0.8 * cooldown * app_module._PUMP_WAIT_S


class TestEventDrivenDispatcher:
    """The dispatcher sleeps until something happens; it never spins."""

    def test_idle_service_pumps_once_per_wait(self):
        with _running(start=False) as app:
            calls = []
            pump = app.pool.pump

            def counting_pump(wait):
                calls.append(wait)
                return pump(wait)

            app.pool.pump = counting_pump
            app.start()
            time.sleep(0.5)
            # 0.5 s / 0.05 s per idle cycle is about 10 calls; a spinning
            # dispatcher makes hundreds of thousands.
            assert len(calls) <= 15, len(calls)

    def test_submission_and_stop_cut_a_long_wait_short(self, monkeypatch):
        monkeypatch.setattr(app_module, "_PUMP_WAIT_S", 30.0)
        with _running() as app:
            _await(lambda: app.readiness()[0] == 200, "readiness")
            time.sleep(0.1)  # the dispatcher is now asleep in the pump
            _status, body, _headers = app.submit(_payload("acme"))
            _await_state(app, body["job"], "completed", timeout=20.0)
            start = time.monotonic()
        assert time.monotonic() - start < 5.0  # stop() woke the pump


class TestResume:
    def test_completed_jobs_restart_as_journal_served(self, tmp_path):
        with _running(tmp_path) as app:
            _status, body, _headers = app.submit(_payload("acme"))
            jid = body["job"]
            _await_state(app, jid, "completed")
            first = pickle.dumps(app.jobs[jid].result)

        with _running(tmp_path, start=False) as app2:
            status = app2.job_status(jid)
            assert status["state"] == "completed"
            assert status["detail"] == "journal"
            assert pickle.dumps(app2.jobs[jid].result) == first
            assert app2.resumed_jobs == 0
            code, result_body = app2.job_result(jid)
            assert code == 200

    def test_accepted_but_unfinished_jobs_resume_and_finish(self, tmp_path):
        with _running(tmp_path, start=False) as app:
            _status, one, _headers = app.submit(_payload("acme"))
            _status, two, _headers = app.submit(_payload("acme",
                                                         pair="gcc:gcc"))

        with _running(tmp_path) as app2:
            assert app2.resumed_jobs == 2
            for jid in (one["job"], two["job"]):
                final = _await_state(app2, jid, "completed")
                assert final["terminal"] is True

    def test_failed_jobs_restart_terminal(self, tmp_path):
        plan = faults.FaultPlan(
            specs=(faults.FaultSpec(kind="crash", index=0, count=1),)
        )
        with faults.fault_injection(plan):
            with _running(tmp_path, retries=0) as app:
                _status, body, _headers = app.submit(_payload("acme"))
                jid = body["job"]
                _await_state(app, jid, "failed")
                attempts = app.jobs[jid].attempts

        with _running(tmp_path, start=False) as app2:
            status = app2.job_status(jid)
            assert status["state"] == "failed"
            assert status["attempts"] == attempts
            assert "crash" in status["detail"]


class TestChaosCampaign:
    """The tentpole invariant: a two-tenant campaign under a crash
    storm with torn journal writes completes with results bit-identical
    to a fault-free campaign, and DRR keeps dispatch fair throughout."""

    _PAIRS = ("gcc:eon", "gcc:gcc", "eon:eon", "mcf:gcc")

    def _campaign(self, app):
        """Submit 2 tenants x 2 pairs before starting the dispatcher,
        so the DRR schedule is a pure function of the queues."""
        ids = {}
        for tenant, pair in (
            ("alpha", self._PAIRS[0]),
            ("alpha", self._PAIRS[1]),
            ("beta", self._PAIRS[2]),
            ("beta", self._PAIRS[3]),
        ):
            status, body, _headers = app.submit(_payload(tenant, pair=pair))
            assert status == 202
            ids[body["job"]] = tenant
        app.start()
        for jid in ids:
            _await_state(app, jid, "completed")
        return {
            jid: pickle.dumps(app.jobs[jid].result) for jid in ids
        }, ids

    def test_results_bit_identical_under_storm_and_torn_journal(
        self, tmp_path
    ):
        with _running(cache_dir=tmp_path / "clean-cache",
                      journal=tmp_path / "clean.jsonl",
                      start=False) as app:
            clean, _tenants = self._campaign(app)

        plan = faults.FaultPlan(
            specs=(
                # Every first attempt of the campaign's 4 dispatches
                # crashes its worker; retries recover each task.
                faults.FaultSpec(kind="storm", index=0, count=4),
                # The first 6 journal appends land torn first.
                faults.FaultSpec(kind="jtear", index=0, count=6),
            )
        )
        sink = telemetry.RingBufferSink()
        with telemetry.tracing(sink), faults.fault_injection(plan):
            with _running(cache_dir=tmp_path / "chaos-cache",
                          journal=tmp_path / "chaos.jsonl",
                          retries=2,
                          breaker_window=8,
                          breaker_threshold=8,
                          start=False) as app:
                chaos, tenants = self._campaign(app)
                assert app.journal._writer.repaired == 6
                retried = [
                    job.attempts for job in app.jobs.values()
                ]
                assert all(count == 2 for count in retried), retried

        assert clean == chaos  # bit-identical pickles, job by job

        # DRR fairness bound: at every dispatch prefix the two
        # backlogged tenants differ by at most one dispatch.
        dispatches = [
            event["tenant"]
            for event in sink.events
            if event["event"] == "queue" and event["action"] == "dispatch"
        ]
        assert sorted(dispatches) == ["alpha", "alpha", "beta", "beta"]
        counts = {"alpha": 0, "beta": 0}
        for tenant in dispatches:
            counts[tenant] += 1
            assert abs(counts["alpha"] - counts["beta"]) <= 1, dispatches

    def test_job_events_tell_the_whole_story(self, tmp_path):
        sink = telemetry.RingBufferSink()
        with telemetry.tracing(sink):
            with _running(tmp_path, start=False) as app:
                _status, body, _headers = app.submit(_payload("acme"))
                app.start()
                _await_state(app, body["job"], "completed")
        phases = [
            event["phase"]
            for event in sink.events
            if event["event"] == "job" and event["job"] == body["job"]
        ]
        assert phases == ["submitted", "dispatched", "completed"]
