"""Per-thread state for the segment-level engine."""

from __future__ import annotations

from typing import Iterator, Optional

from repro.engine.segments import Segment, SegmentStream

__all__ = ["EngineThread"]


class EngineThread:
    """One hardware thread context in the segment engine.

    A plain record that :meth:`repro.engine.soe.SoeEngine.run` updates
    in place: the position inside the current segment (retirement
    within a segment is uniform at the segment's IPC, so positions are
    continuous) and the raw lifetime statistics the engine reports.
    """

    __slots__ = (
        "thread_id", "iterator", "segment", "segment_ipc",
        "segment_cycles_done", "ready_at", "done", "last_dispatch_seq",
        "retired", "run_cycles", "misses", "miss_switches",
        "forced_switches", "cycle_quota_switches",
    )

    def __init__(self, thread_id: int, stream: SegmentStream) -> None:
        self.thread_id = thread_id
        self.iterator: Iterator[Segment] = stream.segments()
        #: the segment executing now; None once the stream is exhausted
        self.segment: Optional[Segment] = next(self.iterator, None)
        #: the current segment's retirement rate, cached at segment load
        self.segment_ipc = 0.0
        if self.segment is not None:
            self.segment_ipc = self.segment.instructions / self.segment.cycles
        self.segment_cycles_done = 0.0
        #: absolute time at which the thread may run again (misses resolve here)
        self.ready_at = 0.0
        #: set when the segment stream is exhausted
        self.done = self.segment is None
        #: scheduling recency (engine bumps this at each dispatch)
        self.last_dispatch_seq = -1

        # Lifetime statistics (the engine snapshots these at warmup).
        self.retired = 0.0
        self.run_cycles = 0.0
        self.misses = 0
        self.miss_switches = 0
        self.forced_switches = 0
        self.cycle_quota_switches = 0
