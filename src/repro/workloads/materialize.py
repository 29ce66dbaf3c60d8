"""Column-oriented segment materialization.

The segment engine consumes :class:`~repro.engine.segments.Segment`
objects one at a time. :class:`ChunkedMaterializer` pulls the same
sequence as *columns* -- parallel lists of instructions, cycles, miss
flags and per-segment latencies -- in bounded chunks, for tooling that
wants a stream's segments in bulk.

Determinism note: the columns are materialized from the **same**
iterator :meth:`SegmentStream.segments` hands the engine, so they hold
the identical segment sequence for a given seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterator, Optional

from repro.engine.segments import Segment, SegmentStream
from repro.errors import ConfigurationError

__all__ = [
    "SegmentColumns",
    "ChunkedMaterializer",
]

#: Default number of segments pulled per refill: large enough to
#: amortize the per-chunk Python overhead, small enough to keep a
#: bounded window of each stream in memory.
DEFAULT_CHUNK_SIZE = 256


@dataclass
class SegmentColumns:
    """A run of consecutive segments as parallel columns.

    ``miss_latency`` holds NaN where the segment uses the machine's
    default memory latency, mirroring ``Segment.miss_latency is None``;
    consumers substitute their configured latency for NaN entries.
    ``exhausted`` is True when the underlying stream ended inside (or
    exactly at the end of) this chunk -- the columns then hold the
    stream's final segments and no further chunk will produce data.
    """

    instructions: list[float] = field(default_factory=list)
    cycles: list[float] = field(default_factory=list)
    ends_with_miss: list[bool] = field(default_factory=list)
    miss_latency: list[float] = field(default_factory=list)
    exhausted: bool = False

    def __len__(self) -> int:
        return len(self.instructions)

    def append(self, segment: Segment) -> None:
        self.instructions.append(segment.instructions)
        self.cycles.append(segment.cycles)
        self.ends_with_miss.append(segment.ends_with_miss)
        self.miss_latency.append(
            math.nan if segment.miss_latency is None else segment.miss_latency
        )

    def segment_at(self, index: int) -> Segment:
        """The row at ``index`` as a scalar :class:`Segment`."""
        latency = self.miss_latency[index]
        return Segment(
            instructions=self.instructions[index],
            cycles=self.cycles[index],
            ends_with_miss=self.ends_with_miss[index],
            miss_latency=None if math.isnan(latency) else latency,
        )


class ChunkedMaterializer:
    """Pulls one stream's segments into successive column chunks.

    One materializer wraps one live iterator, so chunks are consumed
    strictly in stream order.
    """

    def __init__(
        self, stream: SegmentStream, chunk_size: int = DEFAULT_CHUNK_SIZE
    ) -> None:
        if chunk_size <= 0:
            raise ConfigurationError("chunk_size must be positive")
        self._iterator: Iterator[Segment] = stream.segments()
        self._chunk_size = chunk_size
        self._exhausted = False
        #: Total segments handed out so far (diagnostics/telemetry).
        self.materialized = 0

    @property
    def exhausted(self) -> bool:
        """True once the underlying stream has ended; subsequent
        :meth:`take` calls return empty exhausted chunks."""
        return self._exhausted

    def take(self, count: Optional[int] = None) -> SegmentColumns:
        """Materialize up to ``count`` further segments (default: the
        configured chunk size) as columns."""
        if count is None:
            count = self._chunk_size
        if count <= 0:
            raise ConfigurationError("count must be positive")
        columns = SegmentColumns()
        if self._exhausted:
            columns.exhausted = True
            return columns
        # Bulk-pull via islice: consumes exactly the same iterator in
        # the same order as per-segment next() calls, but builds the
        # columns with C-speed comprehensions instead of per-segment
        # appends.
        segments = list(islice(self._iterator, count))
        if len(segments) < count:
            self._exhausted = True
        columns.instructions = [s.instructions for s in segments]
        columns.cycles = [s.cycles for s in segments]
        columns.ends_with_miss = [s.ends_with_miss for s in segments]
        columns.miss_latency = [
            math.nan if s.miss_latency is None else s.miss_latency
            for s in segments
        ]
        columns.exhausted = self._exhausted
        self.materialized += len(columns)
        return columns
