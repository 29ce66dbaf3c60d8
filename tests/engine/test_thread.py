"""Per-thread engine state, observed through the engine that drives it.

The engine's event loop updates :class:`EngineThread` records in place
(segment position, retirement, ``ready_at``, exhaustion), so these
tests run the engine on hand-written segment streams and read the
thread records and the policy callbacks it produced.
"""

import pytest

from repro.core.policy import SwitchPolicy, TimeSharingPolicy
from repro.engine.segments import Segment, stream_from_segments
from repro.engine.soe import RunLimits, SoeEngine, SoeParams

PARAMS = SoeParams(miss_lat=300.0, switch_lat=25.0)


class Spy(SwitchPolicy):
    """Records every callback as ``(hook, thread_id, *args)``."""

    def __init__(self) -> None:
        self.calls = []

    def on_run_start(self, thread_id, now):
        self.calls.append(("start", thread_id, now))

    def on_retired(self, thread_id, instructions, cycles):
        self.calls.append(("retired", thread_id, instructions, cycles))

    def on_miss(self, thread_id, now, latency=None):
        self.calls.append(("miss", thread_id, now, latency))

    def on_switch_out(self, thread_id, reason, now):
        self.calls.append(("out", thread_id, reason, now))

    def of(self, hook, thread_id):
        return [c[2:] for c in self.calls if c[0] == hook and c[1] == thread_id]


class SlicedSpy(TimeSharingPolicy, Spy):
    """Time slicing that also records callbacks."""

    def __init__(self, cycle_quota):
        TimeSharingPolicy.__init__(self, cycle_quota)
        Spy.__init__(self)

    def on_run_start(self, thread_id, now):
        TimeSharingPolicy.on_run_start(self, thread_id, now)
        Spy.on_run_start(self, thread_id, now)

    def on_retired(self, thread_id, instructions, cycles):
        TimeSharingPolicy.on_retired(self, thread_id, instructions, cycles)
        Spy.on_retired(self, thread_id, instructions, cycles)


def make_engine(first, second=None, policy=None):
    if second is None:
        second = [Segment(10, 10)]
    streams = [stream_from_segments(first), stream_from_segments(second)]
    return SoeEngine(streams, policy, PARAMS)


class TestEngineThread:
    def test_loads_first_segment(self):
        thread = make_engine([Segment(100, 40), Segment(200, 100)]).threads[0]
        assert thread.segment == Segment(100, 40)
        assert thread.segment.ipc == pytest.approx(2.5)
        assert not thread.done

    def test_advance_retires_at_segment_ipc(self):
        policy = SlicedSpy(cycle_quota=20.0)
        engine = make_engine([Segment(100, 40), Segment(200, 100)], policy=policy)
        engine.run(RunLimits(min_instructions=1e9))
        retired = policy.of("retired", 0)
        assert retired[0] == (pytest.approx(50.0), pytest.approx(20.0))
        assert engine.threads[0].retired == pytest.approx(300.0)
        assert engine.threads[0].run_cycles == pytest.approx(140.0)

    def test_cycles_to_segment_end(self):
        """A preempted segment resumes with only its remaining cycles."""
        policy = SlicedSpy(cycle_quota=15.0)
        engine = make_engine([Segment(100, 40), Segment(200, 100)], policy=policy)
        engine.run(RunLimits(min_instructions=1e9))
        cycles = [c for _, c in policy.of("retired", 0)]
        assert cycles[:3] == [pytest.approx(15.0), pytest.approx(15.0),
                              pytest.approx(10.0)]
        assert len(policy.of("miss", 0)) == 2

    def test_finish_segment_with_miss_sets_ready_at(self):
        engine = make_engine([Segment(100, 40), Segment(200, 100)])
        engine.run(RunLimits(min_instructions=1e9, max_cycles=100.0))
        thread = engine.threads[0]
        assert thread.ready_at == pytest.approx(25.0 + 40.0 + 300.0)
        assert thread.misses == 1
        assert thread.segment.instructions == 200  # next segment loaded

    def test_finish_missless_segment_is_immediately_ready(self):
        engine = make_engine(
            [Segment(100, 40, ends_with_miss=False), Segment(1, 1)]
        )
        engine.run(RunLimits(min_instructions=1e9, max_cycles=65.5))
        thread = engine.threads[0]
        assert thread.ready_at == pytest.approx(65.0)
        assert thread.misses == 0
        assert thread.segment == Segment(1, 1)

    def test_stream_exhaustion_marks_done(self):
        policy = Spy()
        engine = make_engine([Segment(100, 40, ends_with_miss=False)], policy=policy)
        engine.run(RunLimits(min_instructions=1e9))
        assert engine.threads[0].done
        assert engine.threads[0].segment is None
        assert policy.of("out", 0) == [("done", pytest.approx(65.0))]

    def test_is_ready_respects_ready_at(self):
        """A thread waiting on a miss is not dispatched before the miss
        resolves: the core idles until then."""
        policy = Spy()
        engine = make_engine([Segment(100, 40), Segment(200, 100)], policy=policy)
        result = engine.run(RunLimits(min_instructions=1e9))
        assert policy.of("miss", 0)[0] == (pytest.approx(65.0), 300.0)
        assert policy.of("start", 0)[1] == (pytest.approx(365.0 + 25.0),)
        assert result.idle_cycles == pytest.approx(365.0 - (65.0 + 25.0 + 10.0))

    def test_done_thread_is_never_ready(self):
        policy = Spy()
        streams = [
            stream_from_segments([Segment(100, 40, ends_with_miss=False)]),
            stream_from_segments([Segment(10, 10)] * 5),
        ]
        engine = SoeEngine(streams, policy, SoeParams(miss_lat=0.0, switch_lat=25.0))
        engine.run(RunLimits(min_instructions=1e9))
        assert engine.threads[0].done
        assert len(policy.of("start", 0)) == 1
        assert len(policy.of("start", 1)) == 5
