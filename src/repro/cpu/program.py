"""Trace programs: restartable micro-op streams.

A :class:`TraceProgram` plays the role the paper's LITs play for the
authors' simulator -- a replayable description of one thread's dynamic
instruction stream. SOE needs pushback support: uops flushed from the
pipeline on a thread switch (or a branch redirect) are *not retired*
and must be refetched, so :class:`ProgramCursor` keeps an explicit
replay stack in front of the underlying iterator.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Iterator, Optional

from repro.cpu.isa import MicroOp
from repro.errors import WorkloadError

__all__ = ["TraceProgram", "ProgramCursor", "program_from_uops"]


class TraceProgram:
    """A restartable source of :class:`MicroOp` values."""

    def __init__(self, factory: Callable[[], Iterator[MicroOp]], name: str = "") -> None:
        self._factory = factory
        self.name = name

    def uops(self) -> Iterator[MicroOp]:
        iterator = self._factory()
        if iterator is None:
            raise WorkloadError(f"trace factory for {self.name!r} returned None")
        return iterator

    def cursor(self) -> "ProgramCursor":
        return ProgramCursor(self.uops())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceProgram({self.name!r})"


def program_from_uops(uops: Iterable[MicroOp], name: str = "") -> TraceProgram:
    """Wrap a concrete uop list as a replayable program."""
    materialized = list(uops)
    if not materialized:
        raise WorkloadError("a trace program needs at least one micro-op")
    return TraceProgram(lambda: iter(materialized), name=name)


class ProgramCursor:
    """Iterator over a trace with pushback for pipeline flushes.

    The pipeline's fetch loop inlines :meth:`fetch` (it reads
    ``_replay`` and ``_iterator`` and sets ``_exhausted`` directly), so
    keep the two in step.
    """

    def __init__(self, iterator: Iterator[MicroOp]) -> None:
        self._iterator = iterator
        self._replay: deque[MicroOp] = deque()
        self._exhausted = False

    @property
    def exhausted(self) -> bool:
        """True when both the replay stack and the trace are drained."""
        if self._replay:
            return False
        if self._exhausted:
            return True
        try:
            self._replay.append(next(self._iterator))
        except StopIteration:
            self._exhausted = True
        return self._exhausted

    def fetch(self) -> Optional[MicroOp]:
        """Next uop in program order, or None at end-of-trace."""
        if self._replay:
            return self._replay.popleft()
        try:
            return next(self._iterator)
        except StopIteration:
            self._exhausted = True
            return None

    def push_back(self, uops: Iterable[MicroOp]) -> None:
        """Return flushed uops to the front, oldest first.

        ``uops`` must be in program order (oldest first); they will be
        re-fetched in the same order.
        """
        for uop in reversed(list(uops)):
            self._replay.appendleft(uop)
