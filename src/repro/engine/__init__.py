"""Segment-level SOE timing engine (fast simulation substrate).

This package implements the paper's Section 2.1 program-behaviour model
as an exact event-driven simulator: workloads are streams of inter-miss
instruction segments, and the engine reproduces SOE switching, miss
resolution, switch overhead, quotas and sampling boundaries without a
per-cycle loop. The detailed microarchitectural substrate lives in
:mod:`repro.cpu`; the fairness mechanism itself (:mod:`repro.core`) is
shared between both.
"""

from repro.engine.backend import SoeRunSpec
from repro.engine.recorder import IntervalRecorder, IntervalSample
from repro.engine.results import SingleThreadResult, SoeRunResult, ThreadStats
from repro.engine.segments import Segment, SegmentStream, stream_from_segments
from repro.engine.singlethread import run_single_thread
from repro.engine.soe import RunLimits, SoeEngine, SoeParams, run_soe

__all__ = [
    "IntervalRecorder",
    "IntervalSample",
    "RunLimits",
    "Segment",
    "SegmentStream",
    "SingleThreadResult",
    "SoeEngine",
    "SoeParams",
    "SoeRunResult",
    "SoeRunSpec",
    "ThreadStats",
    "run_single_thread",
    "run_soe",
    "stream_from_segments",
]
