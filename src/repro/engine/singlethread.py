"""Single-thread reference runs (ground-truth ``IPC_ST``).

The paper's achieved-fairness results compare each thread's SOE
performance against its *real* single-thread performance, obtained by
simulating each benchmark alone on the processor. For the segment model
this run is a straight accumulation: every segment contributes its
execution cycles plus, if it ends with a miss, the full miss latency
(Eq. 1's denominator).
"""

from __future__ import annotations

import math

from repro.engine.results import SingleThreadResult
from repro.engine.segments import SegmentStream
from repro.errors import ConfigurationError
from repro.telemetry.profile import PROFILE

__all__ = ["run_single_thread"]


def run_single_thread(
    stream: SegmentStream,
    miss_lat: float = 300.0,
    min_instructions: float = 100_000.0,
) -> SingleThreadResult:
    """Run one workload alone and measure its IPC.

    Measures from the first instruction and stops at the first segment
    boundary at or after ``min_instructions`` retired.
    """
    # A NaN comparison is false, so these are written to reject it: a
    # NaN latency would make the IPC NaN, and a NaN or infinite
    # instruction target would never end an unbounded stream.
    if not (miss_lat >= 0 and math.isfinite(miss_lat)):
        raise ConfigurationError("miss_lat must be finite and non-negative")
    if not (min_instructions > 0 and math.isfinite(min_instructions)):
        raise ConfigurationError("min_instructions must be finite and positive")

    retired = 0.0
    cycles = 0.0
    run_cycles = 0.0
    misses = 0
    for segment in stream.segments():
        retired += segment.instructions
        cycles += segment.cycles
        run_cycles += segment.cycles
        if segment.ends_with_miss:
            misses += 1
            cycles += (
                miss_lat if segment.miss_latency is None else segment.miss_latency
            )
        if retired >= min_instructions:
            break

    if cycles <= 0:
        raise ConfigurationError("single-thread run produced an empty window")
    PROFILE.record_cycles(cycles)
    return SingleThreadResult(
        retired=retired, cycles=cycles, misses=misses, run_cycles=run_cycles
    )
