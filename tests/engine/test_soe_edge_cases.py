"""Regression tests for segment-engine edge cases.

Covers four historical bugs -- the all-idle spin at the ``max_cycles``
cap, the spin of a step that starts within _EPS below that cap, float
drift across boundary-split inactive spans, and the double-query of
``policy.next_boundary`` in the boundary-firing loop -- plus golden
pins of the run loop's zero-budget tie-breaking order and the miss-free
segment join.
"""

import math

import pytest

from repro.core.policy import SwitchPolicy
from repro.engine.segments import Segment, stream_from_segments
from repro.engine.soe import RunLimits, SoeEngine, SoeParams


def _two_segment_stream(miss_latency):
    """Two 25-instruction, 10-cycle segments; the first ends with a
    miss of the given latency, so the stream is not exhausted when the
    miss parks the thread."""
    return stream_from_segments(
        [
            Segment(25.0, 10.0, miss_latency=miss_latency),
            Segment(25.0, 10.0),
        ]
    )


class TestIdleAtMaxCyclesCap:
    """Idling when every pending ``ready_at`` exceeds ``max_cycles``:
    the elapse must still terminate the run loop."""

    def test_all_idle_span_at_the_cap_terminates(self):
        # Both threads miss with an astronomically long latency after 10
        # cycles each, so from now=20 the core idles with every ready_at
        # far beyond the cap. A cap within _EPS of now makes the naive
        # ``min(target, cap) - now`` elapse non-positive: pre-fix, the
        # run loop spun forever here.
        streams = [_two_segment_stream(1e12), _two_segment_stream(1e12)]
        engine = SoeEngine(streams, params=SoeParams(switch_lat=0.0))
        cap = 20.0 + 1e-10
        result = engine.run(RunLimits(min_instructions=100.0, max_cycles=cap))
        assert engine.now == cap
        assert result.cycles == pytest.approx(cap)
        for stats in result.threads:
            assert stats.retired == 25.0

    def test_dispatch_within_eps_below_the_cap_terminates(self):
        # Thread 0 misses at t=10, a hair below the cap, and thread 1 is
        # dispatched with nothing left to run: the step must end the
        # run. Pre-fix, the step returned without advancing and the run
        # loop spun forever, since ``now`` never reached the cap.
        streams = [_two_segment_stream(1e12), _two_segment_stream(1e12)]
        engine = SoeEngine(streams, params=SoeParams(switch_lat=0.0))
        result = engine.run(
            RunLimits(min_instructions=100.0, max_cycles=10.0 + 1e-10)
        )
        assert engine.now == 10.0
        assert [t.retired for t in result.threads] == [25.0, 0.0]

    def test_idle_elapses_to_a_distant_cap(self):
        # Same all-idle span with the cap well beyond now: the engine
        # must idle exactly up to the cap, not to the pending ready_at.
        streams = [_two_segment_stream(1e12), _two_segment_stream(1e12)]
        engine = SoeEngine(streams, params=SoeParams(switch_lat=0.0))
        result = engine.run(RunLimits(min_instructions=100.0, max_cycles=500.0))
        assert engine.now == 500.0
        assert result.idle_cycles == pytest.approx(480.0)

    def test_idle_before_the_cap_is_unchanged(self):
        # When the earliest ready_at is below the cap the normal elapse
        # path runs: the thread resumes and retires its second segment.
        streams = [_two_segment_stream(100.0), _two_segment_stream(100.0)]
        engine = SoeEngine(streams, params=SoeParams(switch_lat=0.0))
        result = engine.run(RunLimits(min_instructions=50.0, max_cycles=1e6))
        for stats in result.threads:
            assert stats.retired == 50.0


class ExactBoundarySpy(SwitchPolicy):
    """Boundary schedule with a period that is not exactly representable;
    records the engine clock alongside each delivered boundary."""

    def __init__(self, period):
        self.period = period
        self._next = period
        self.observed = []  # (engine.now at delivery, boundary delivered)
        self.engine = None

    def next_boundary(self, now):
        return self._next

    def on_boundary(self, now):
        self.observed.append((self.engine.now, now))
        while self._next <= now:
            self._next += self.period


class TestBoundaryDriftSnap:
    """``_elapse_inactive`` must hand boundaries to the policy with the
    clock sitting exactly on the boundary, even after many spans whose
    lengths do not align with the (inexact) sampling period."""

    def test_clock_is_exact_at_every_boundary(self):
        # Delta = 0.1 accumulates representation error; elapsing in
        # 0.07-cycle spans makes ``now`` accumulate independent rounding.
        # Pre-fix, the clock delivered boundary 2.800000000000001 at
        # now=2.799999999999999 (and drifted further on).
        streams = [
            stream_from_segments([Segment(25.0, 10.0)]),
            stream_from_segments([Segment(25.0, 10.0)]),
        ]
        spy = ExactBoundarySpy(0.1)
        engine = SoeEngine(streams, spy, SoeParams(switch_lat=0.0))
        spy.engine = engine
        for _ in range(200):
            engine._elapse_inactive(0.07, "idle")
        assert len(spy.observed) == 140
        for engine_now, boundary in spy.observed:
            assert engine_now == boundary

    def test_idle_accounting_is_preserved(self):
        streams = [
            stream_from_segments([Segment(25.0, 10.0)]),
            stream_from_segments([Segment(25.0, 10.0)]),
        ]
        spy = ExactBoundarySpy(0.1)
        engine = SoeEngine(streams, spy, SoeParams(switch_lat=0.0))
        spy.engine = engine
        for _ in range(200):
            engine._elapse_inactive(0.07, "idle")
        # Snapping moves the clock by at most _EPS per boundary; the
        # idle ledger must still cover the whole elapsed span.
        assert engine.idle_cycles == pytest.approx(engine.now, abs=1e-6)


class PoppingSchedule(SwitchPolicy):
    """A schedule that advances on *query*: each ``next_boundary`` call
    consumes the next value. Exposes whether the engine re-queries
    between the due-check and the ``on_boundary`` delivery."""

    def __init__(self, values):
        self._values = list(values)
        self.received = []

    def next_boundary(self, now):
        if self._values:
            return self._values.pop(0)
        return math.inf

    def on_boundary(self, now):
        self.received.append(now)


class TestSingleQueryPerBoundary:
    def test_on_boundary_receives_the_value_that_passed_the_guard(self):
        streams = [
            stream_from_segments([Segment(25.0, 10.0)]),
            stream_from_segments([Segment(25.0, 10.0)]),
        ]
        # The fast-path due-check consumes 3.0; the firing loop then
        # queries once per iteration: 4.0 is due and must be delivered
        # as-is, inf ends the loop. Pre-fix the loop queried twice --
        # the guard consumed 4.0 and ``on_boundary`` received inf.
        policy = PoppingSchedule([3.0, 4.0])
        engine = SoeEngine(streams, policy, SoeParams(switch_lat=0.0))
        engine.now = 10.0
        engine._fire_due_boundaries()
        assert policy.received == [4.0]

    def test_every_delivered_boundary_was_due(self):
        streams = [
            stream_from_segments([Segment(25.0, 10.0)]),
            stream_from_segments([Segment(25.0, 10.0)]),
        ]
        policy = PoppingSchedule([1.0, 2.0, 5.0, 7.5, 9.0, 42.0])
        engine = SoeEngine(streams, policy, SoeParams(switch_lat=0.0))
        engine.now = 10.0
        engine._fire_due_boundaries()
        assert policy.received == [2.0, 5.0, 7.5, 9.0]
        for boundary in policy.received:
            assert boundary <= engine.now + 1e-9


class BudgetStub(SwitchPolicy):
    """Fixed per-dispatch budgets plus a switch-reason log."""

    def __init__(self, instr=math.inf, cycle=math.inf):
        self._instr = instr
        self._cycle = cycle
        self.switch_reasons = []
        self.dispatches = []

    def instruction_budget(self, thread_id):
        return self._instr

    def cycle_budget(self, thread_id):
        return self._cycle

    def on_run_start(self, thread_id, now):
        self.dispatches.append((thread_id, now))

    def on_switch_out(self, thread_id, reason, now):
        self.switch_reasons.append((thread_id, reason, now))


def _first_step(policy, finished_segment=False):
    """An engine run just far enough for thread 0's first step: it is
    dispatched at t=25, and the cap stops the run at thread 1's
    dispatch. ``finished_segment`` marks thread 0's first segment as
    fully executed before the run starts."""
    streams = [
        stream_from_segments([Segment(25.0, 10.0), Segment(25.0, 10.0)]),
        stream_from_segments([Segment(25.0, 10.0)]),
    ]
    engine = SoeEngine(streams, policy, SoeParams(switch_lat=25.0))
    if finished_segment:
        thread = engine.threads[0]
        thread.segment_cycles_done = thread.segment.cycles
    engine.run(RunLimits(max_cycles=30.0))
    return engine


class TestZeroBudgetTieBreaking:
    """Golden pins of the run loop's zero-dt classification order:
    segment end beats instruction quota beats cycle quota."""

    def test_segment_end_wins_over_both_zero_budgets(self):
        policy = BudgetStub(instr=0.0, cycle=0.0)
        engine = _first_step(policy, finished_segment=True)
        thread = engine.threads[0]
        assert thread.misses == 1
        assert thread.forced_switches == 0
        assert thread.cycle_quota_switches == 0
        assert policy.switch_reasons == [(0, "miss", 25.0)]
        assert thread.ready_at == 325.0  # parked for the default miss_lat

    def test_instruction_quota_wins_over_zero_cycle_budget(self):
        policy = BudgetStub(instr=0.0, cycle=0.0)
        engine = _first_step(policy)
        thread = engine.threads[0]
        assert thread.forced_switches == 1
        assert thread.misses == 0
        assert thread.cycle_quota_switches == 0
        assert policy.switch_reasons == [(0, "quota", 25.0)]
        assert thread.ready_at == 25.0  # immediately runnable again

    def test_cycle_quota_is_the_final_tiebreak(self):
        policy = BudgetStub(instr=math.inf, cycle=0.0)
        engine = _first_step(policy)
        thread = engine.threads[0]
        assert thread.cycle_quota_switches == 1
        assert thread.misses == 0
        assert thread.forced_switches == 0
        assert policy.switch_reasons == [(0, "cycle_quota", 25.0)]
        assert thread.ready_at == 25.0


class TestMissFreeSegmentJoin:
    def test_join_retires_both_segments_in_one_dispatch(self):
        # Segment A ends without a miss: the thread flows straight into
        # segment B within the same dispatch -- no switch, no stall.
        policy = BudgetStub()
        streams = [
            stream_from_segments(
                [Segment(100.0, 40.0, ends_with_miss=False), Segment(100.0, 40.0)]
            ),
            stream_from_segments([Segment(100.0, 40.0)]),
        ]
        engine = SoeEngine(streams, policy, SoeParams(switch_lat=0.0))
        result = engine.run(RunLimits(min_instructions=200.0))

        first = result.threads[0]
        assert first.retired == 200.0
        assert first.run_cycles == 80.0
        assert first.misses == 1  # only segment B's terminating miss
        assert first.miss_switches == 1
        assert first.forced_switches == 0

        # One dispatch covered both segments; the only switch-out for
        # thread 0 is segment B's miss at t=80.
        assert [d for d in policy.dispatches if d[0] == 0] == [(0, 0.0)]
        assert [s for s in policy.switch_reasons if s[0] == 0] == [(0, "miss", 80.0)]
        assert engine.now == 120.0

    def test_join_does_not_park_the_thread(self):
        streams = [
            stream_from_segments(
                [Segment(100.0, 40.0, ends_with_miss=False), Segment(100.0, 40.0)]
            ),
            stream_from_segments([Segment(100.0, 40.0)]),
        ]
        engine = SoeEngine(streams, params=SoeParams(switch_lat=0.0))
        thread = engine.threads[0]
        # The cap stops the run right after the step that runs segment
        # A to its end: the miss-free join leaves the thread active on
        # segment B.
        engine.run(RunLimits(max_cycles=40.0))
        assert engine.now == 40.0
        assert engine._active is thread  # still running
        assert thread.ready_at == engine.now
        assert thread.segment is not None
        assert thread.segment_cycles_done == 0.0
