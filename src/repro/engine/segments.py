"""Segment abstractions for the segment-level timing engine.

The engine adopts the paper's own program-behaviour model (Section 2.1):
a thread is a sequence of *segments*, each a run of instructions that
executes at some uniform rate and ends with a last-level cache miss.
Workload generators (:mod:`repro.workloads`) produce segment streams;
the engine consumes them.
"""

from __future__ import annotations

from math import isfinite
from typing import Callable, Iterable, Iterator, Optional

from repro.errors import ConfigurationError, WorkloadError

__all__ = ["Segment", "SegmentStream", "stream_from_segments"]


class Segment:
    """A run of instructions between two last-level cache misses.

    Parameters
    ----------
    instructions:
        Useful instructions retired in the segment (> 0).
    cycles:
        Execution cycles the segment takes, *excluding* the terminating
        miss's stall (> 0). The implied retirement rate
        ``instructions / cycles`` is the segment's ``IPC_no_miss``.
    ends_with_miss:
        False only for a trailing partial segment of a finite workload.
    miss_latency:
        Stall latency of the terminating event, when it differs from
        the machine's default memory latency (Section 6's variable-
        latency events: L1 misses, pause hints...). None = default.

    Segments are immutable values with the behaviour of a frozen
    dataclass (field equality and hash, a field-by-field ``repr``,
    ``__match_args__``). The class is hand-written with ``__slots__``
    because workloads build one per simulated miss: construction is the
    segment generator's largest cost after the random draws.
    """

    __slots__ = ("instructions", "cycles", "ends_with_miss", "miss_latency")
    __match_args__ = __slots__

    instructions: float
    cycles: float
    ends_with_miss: bool
    miss_latency: Optional[float]

    def __init__(
        self,
        instructions: float,
        cycles: float,
        ends_with_miss: bool = True,
        miss_latency: Optional[float] = None,
    ) -> None:
        if not (instructions > 0 and isfinite(instructions)):
            raise ConfigurationError(
                f"segment instructions must be positive, got {instructions}"
            )
        if not (cycles > 0 and isfinite(cycles)):
            raise ConfigurationError(f"segment cycles must be positive, got {cycles}")
        if miss_latency is not None and miss_latency < 0:
            raise ConfigurationError("miss_latency must be non-negative")
        _set_instructions(self, instructions)
        _set_cycles(self, cycles)
        _set_ends_with_miss(self, ends_with_miss)
        _set_miss_latency(self, miss_latency)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        return (self.instructions, self.cycles, self.ends_with_miss, self.miss_latency)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"Segment(instructions={self.instructions!r}, cycles={self.cycles!r}, "
            f"ends_with_miss={self.ends_with_miss!r}, "
            f"miss_latency={self.miss_latency!r})"
        )

    def __reduce__(self) -> tuple:
        return (Segment, self._fields())

    @property
    def ipc(self) -> float:
        """The segment's retirement rate (its ``IPC_no_miss``)."""
        return self.instructions / self.cycles


# ``__init__`` stores through the slot descriptors: ``__setattr__``
# refuses every assignment, which is what keeps segments immutable.
_set_instructions = Segment.instructions.__set__  # type: ignore[attr-defined]
_set_cycles = Segment.cycles.__set__  # type: ignore[attr-defined]
_set_ends_with_miss = Segment.ends_with_miss.__set__  # type: ignore[attr-defined]
_set_miss_latency = Segment.miss_latency.__set__  # type: ignore[attr-defined]


class SegmentStream:
    """A restartable source of :class:`Segment` values.

    The same workload must be replayable for the single-thread reference
    run and for each SOE configuration, so streams are factories: every
    call to :meth:`segments` returns a fresh iterator over the *same*
    deterministic sequence.
    """

    def __init__(self, factory: Callable[[], Iterator[Segment]], name: str = "") -> None:
        self._factory = factory
        self.name = name

    def segments(self) -> Iterator[Segment]:
        """A fresh iterator over the stream's segment sequence."""
        iterator = self._factory()
        if iterator is None:
            raise WorkloadError(f"stream factory for {self.name!r} returned None")
        return iterator

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SegmentStream({self.name!r})"


def stream_from_segments(segments: Iterable[Segment], name: str = "") -> SegmentStream:
    """Wrap a concrete segment list as a restartable stream.

    Convenient in tests and examples where the exact segment sequence is
    spelled out by hand.
    """
    materialized = list(segments)
    if not materialized:
        raise WorkloadError("a segment stream needs at least one segment")
    return SegmentStream(lambda: iter(materialized), name=name)
