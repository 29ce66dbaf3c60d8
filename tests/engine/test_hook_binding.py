"""How the segment engine drives its policy: hooks a policy leaves at
the :class:`SwitchPolicy` default are never called, and the boundary
schedule is read once and again only after boundaries fire."""

import math

import pytest

from repro.core.controller import FairnessController, FairnessParams
from repro.core.policy import NoFairnessPolicy, SwitchPolicy
from repro.engine.segments import Segment, stream_from_segments
from repro.engine.soe import RunLimits, SoeEngine, SoeParams, run_soe
from repro.workloads.synthetic import uniform_stream

DEFAULT_HOOKS = ("on_run_start", "on_miss", "on_switch_out")


def _refuse(*args, **kwargs):
    raise AssertionError("a default policy hook was called")


@pytest.fixture
def default_hooks_raise(monkeypatch):
    for hook in DEFAULT_HOOKS:
        monkeypatch.setattr(SwitchPolicy, hook, _refuse)


def _streams():
    return [
        uniform_stream(2.0, 400.0, ipm_cv=0.5, seed=1),
        uniform_stream(1.0, 2_000.0, ipm_cv=0.5, seed=2),
    ]


class TestDefaultHooksSkipped:
    def test_unenforced_run_calls_no_default_hook(self, default_hooks_raise):
        result = run_soe(
            _streams(), NoFairnessPolicy(), limits=RunLimits(min_instructions=50_000)
        )
        assert sum(t.miss_switches for t in result.threads) > 10

    def test_results_match_the_overriding_policy(self, default_hooks_raise):
        # A policy that overrides the three hooks as no-ops must see the
        # same run as one that leaves them at the default.
        class Noops(SwitchPolicy):
            def on_run_start(self, thread_id, now):
                pass

            def on_miss(self, thread_id, now, latency=None):
                pass

            def on_switch_out(self, thread_id, reason, now):
                pass

        limits = RunLimits(min_instructions=50_000)
        skipped = run_soe(_streams(), NoFairnessPolicy(), limits=limits)
        called = run_soe(_streams(), Noops(), limits=limits)
        assert skipped == called


class CountingSchedule(SwitchPolicy):
    """A fixed ``Delta`` schedule that counts its queries and firings."""

    def __init__(self, period):
        self.period = period
        self._next = period
        self.queries = 0
        self.fired = 0

    def next_boundary(self, now):
        self.queries += 1
        return self._next

    def on_boundary(self, now):
        self.fired += 1
        while self._next <= now:
            self._next += self.period


def _many_segments(count):
    # Alternating long and short segments, each ending in a miss, so
    # every segment is an engine event and the threads also idle.
    segments = [
        Segment(40.0 if i % 2 else 400.0, 20.0 if i % 2 else 250.0)
        for i in range(count)
    ]
    return [stream_from_segments(segments), stream_from_segments(segments)]


class TestOneBoundaryQueryPerFiring:
    @pytest.mark.parametrize("segments", [200, 2_000])
    def test_queries_scale_with_firings_not_events(self, segments):
        schedule = CountingSchedule(25_000.0)
        engine = SoeEngine(_many_segments(segments), schedule)
        engine.run(RunLimits(min_instructions=200.0 * segments))
        events = sum(t.miss_switches for t in engine.threads)
        assert events >= segments  # every segment was an event
        assert schedule.fired >= 1
        assert schedule.queries <= 8 * schedule.fired + 4

    def test_controller_run_queries_once_per_firing(self):
        # The paper's mechanism through the same path: the Delta
        # boundaries it fires bound its schedule reads.
        controller = FairnessController(
            2, FairnessParams(fairness_target=1.0, sample_period=25_000.0)
        )
        queries = []
        original = controller.next_boundary

        def counted(now):
            queries.append(now)
            return original(now)

        controller.next_boundary = counted
        engine = SoeEngine(_many_segments(2_000), controller)
        engine.run(RunLimits(min_instructions=400_000.0))
        fired = len(controller.history)
        assert fired >= 1
        assert len(queries) <= 8 * fired + 4
        assert sum(t.miss_switches for t in engine.threads) > 1_000

    def test_boundaries_still_fire_on_schedule(self):
        schedule = CountingSchedule(1_000.0)
        engine = SoeEngine(_many_segments(500), schedule, SoeParams())
        engine.run(RunLimits(min_instructions=50_000.0))
        assert schedule.fired == math.floor(engine.now / 1_000.0)
