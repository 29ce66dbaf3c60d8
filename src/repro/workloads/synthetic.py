"""Synthetic segment-stream generators (SPEC CPU2000 substitutes).

The paper drives its simulator with LITs -- checkpointed traces of SPEC
CPU2000 binaries. Those are proprietary, so we substitute synthetic
workloads that exercise the same code paths: streams of inter-miss
segments whose statistics (instructions-per-miss, retirement rate, their
variability, and phase changes over time) are drawn from configurable
distributions. The fairness mechanism observes programs *only* through
these statistics, so matching their distributions preserves the
behaviour the paper studies.

All generators are deterministic given a seed, and restartable: each
call to ``stream()`` replays the identical segment sequence, which is
what lets the single-thread reference run and every SOE configuration
see the same workload. Like the paper's recorded traces, each stream is
drawn once per process and replayed from a recording after that (see
:class:`_StreamMemo`).
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from array import array
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Tuple

from repro.engine.segments import (
    Segment,
    SegmentStream,
    _set_cycles,
    _set_ends_with_miss,
    _set_instructions,
    _set_miss_latency,
)
from repro.errors import ConfigurationError, WorkloadError

__all__ = [
    "SegmentDistribution",
    "Phase",
    "make_stream",
    "uniform_stream",
    "phased_stream",
]


# Constants of ``random.Random.normalvariate`` (Kinderman-Monahan), which
# ``SegmentDistribution.sampler`` inlines.
_NV_MAGICCONST = 4 * math.exp(-0.5) / math.sqrt(2.0)
_exp = math.exp
_log = math.log


def _lognormal_params(mean: float, cv: float) -> tuple[float, float]:
    """(mu, sigma) of a lognormal with the given mean and coefficient of
    variation."""
    sigma2 = math.log(1.0 + cv * cv)
    mu = math.log(mean) - sigma2 / 2.0
    return mu, math.sqrt(sigma2)


@dataclass(frozen=True)
class SegmentDistribution:
    """Distribution of segment characteristics for one program phase.

    Parameters
    ----------
    ipc_no_miss:
        Mean retirement rate between misses.
    ipm:
        Mean instructions per miss (segment length).
    ipm_cv:
        Coefficient of variation of segment lengths (0 = deterministic;
        1.0 approximates the memoryless behaviour of irregular access
        patterns).
    ipc_cv:
        Coefficient of variation of the per-segment retirement rate.
    """

    ipc_no_miss: float
    ipm: float
    ipm_cv: float = 0.0
    ipc_cv: float = 0.0

    def __post_init__(self) -> None:
        if not all(
            math.isfinite(value)
            for value in (self.ipc_no_miss, self.ipm, self.ipm_cv, self.ipc_cv)
        ):
            raise ConfigurationError(f"segment distribution must be finite: {self}")
        if self.ipc_no_miss <= 0 or self.ipm <= 0:
            raise ConfigurationError("ipc_no_miss and ipm must be positive")
        if self.ipm_cv < 0 or self.ipc_cv < 0:
            raise ConfigurationError("coefficients of variation must be >= 0")

    @property
    def cpm(self) -> float:
        """Mean cycles per miss implied by the distribution."""
        return self.ipm / self.ipc_no_miss

    @functools.cached_property
    def _constant_segment(self) -> Segment:
        """The one segment a fully deterministic distribution produces.

        When both coefficients of variation are zero, a draw consumes
        no randomness and every draw is identical, so the (frozen)
        segment is built once and shared -- the dominant case in the
        paper's uniform-workload sweeps.
        """
        return Segment(
            instructions=self.ipm, cycles=self.ipm / self.ipc_no_miss
        )

    def sampler(self, rng: random.Random) -> Callable[[], Segment]:
        """A zero-argument function that draws one segment from ``rng``.

        Lengths and rates are lognormal (``Random.lognormvariate``
        inlined: Kinderman-Monahan over ``rng.random``, the same draws
        in the same order), clamped at 1 instruction and 0.05 IPC.
        """
        if self.ipm_cv == 0 and self.ipc_cv == 0:
            constant = self._constant_segment
            return lambda: constant
        ipm, ipc_no_miss = self.ipm, self.ipc_no_miss
        vary_ipm, vary_ipc = self.ipm_cv > 0, self.ipc_cv > 0
        ipm_mu, ipm_sigma = _lognormal_params(self.ipm, self.ipm_cv)
        ipc_mu, ipc_sigma = _lognormal_params(self.ipc_no_miss, self.ipc_cv)
        uniform = rng.random

        def lognormal(mu: float, sigma: float) -> float:
            while True:
                u1 = uniform()
                u2 = 1.0 - uniform()
                z = _NV_MAGICCONST * (u1 - 0.5) / u2
                if z * z / 4.0 <= -_log(u2):
                    return _exp(mu + z * sigma)

        def draw() -> Segment:
            instructions = ipm
            if vary_ipm:
                instructions = lognormal(ipm_mu, ipm_sigma)
                if not instructions > 1.0:
                    instructions = 1.0
            ipc = ipc_no_miss
            if vary_ipc:
                ipc = lognormal(ipc_mu, ipc_sigma)
                if not ipc > 0.05:
                    ipc = 0.05
            return Segment(instructions, instructions / ipc)

        return draw


@dataclass(frozen=True)
class Phase:
    """One program phase: a segment distribution active for a span of
    instructions (the paper's Section 5.1.2 discusses how such phase
    changes perturb the estimator)."""

    distribution: SegmentDistribution
    instructions: float

    def __post_init__(self) -> None:
        if self.instructions <= 0:
            raise ConfigurationError("phase length must be positive")


def _generate(
    phases: Sequence[Phase],
    seed: int,
    skip_instructions: float,
) -> Iterator[Segment]:
    """Yield segments phase-by-phase, cycling forever.

    ``skip_instructions`` silently discards the leading instructions,
    which is how benchmark pairs offset identical workloads (the paper
    offsets same-benchmark pairs by 1,000,000 instructions).
    """
    rng = random.Random(seed)
    # One sampler per phase, all drawing from the one rng, so the draw
    # order is the phase order.
    schedule = [
        (phase.instructions, phase.distribution.sampler(rng)) for phase in phases
    ]
    to_skip = skip_instructions
    while True:
        for length, draw in schedule:
            produced = 0.0
            while produced < length:
                segment = draw()
                produced += segment.instructions
                if to_skip > 0:
                    if segment.instructions <= to_skip:
                        to_skip -= segment.instructions
                        continue
                    fraction = 1.0 - to_skip / segment.instructions
                    to_skip = 0.0
                    segment = Segment(
                        instructions=max(1.0, segment.instructions * fraction),
                        cycles=max(1e-9, segment.cycles * fraction),
                        ends_with_miss=segment.ends_with_miss,
                    )
                yield segment


#: Most segments the stream memo keeps recorded in one process: two
#: 8-byte columns each, so about 2 MiB. A default evaluation grid draws
#: about 71k distinct segments.
MEMO_SEGMENTS = 1 << 17

_StreamKey = Tuple[Tuple[Phase, ...], int, float]


class _Recording:
    """The segments of one stream drawn so far, and the generator that
    draws the rest.

    Synthetic segments always end with a miss and use the machine's
    default miss latency, so only the two numeric fields are recorded;
    :func:`_replay` refuses a drawn segment for which that is false.
    """

    __slots__ = ("instructions", "cycles", "live", "evicted")

    def __init__(self, live: Iterator[Segment]) -> None:
        self.instructions = array("d")
        self.cycles = array("d")
        #: the live generator, positioned at the end of the columns;
        #: None once an evicted recording has handed it to an iterator
        self.live: Optional[Iterator[Segment]] = live
        #: dropped from the memo: the columns stop growing
        self.evicted = False


class _StreamMemo:
    """Recordings of the synthetic streams drawn in this process.

    The evaluation replays each stream many times: the single-thread
    reference run and every SOE run of every fairness level read the
    same sequence. A recording is keyed by everything the sequence
    depends on, ``(phases, seed, skip_instructions)``, so a replay is
    the draw itself, float for float. At most :data:`MEMO_SEGMENTS`
    segments stay recorded; past that, whole least-recently-used
    streams are evicted. Iterators already reading an evicted recording
    still see the full sequence (:func:`_replay`).

    One process never advances a stream from two threads: grid tasks
    and service jobs run one at a time in each pool worker process, and
    an inline run simulates in the calling thread. Iterators of one
    stream may interleave freely within a thread.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.recordings: "OrderedDict[_StreamKey, _Recording]" = OrderedDict()
        #: segments held in the recordings of ``recordings``
        self.size = 0

    def recording(self, key: _StreamKey) -> _Recording:
        """The recording of ``key``, started if there is none."""
        recording = self.recordings.get(key)
        if recording is None:
            recording = self.recordings[key] = _Recording(_generate(*key))
        else:
            self.recordings.move_to_end(key)
        return recording

    def evict(self) -> None:
        """Drop least-recently-used recordings until ``size`` fits."""
        while self.size > self.capacity and self.recordings:
            _, recording = self.recordings.popitem(last=False)
            recording.evicted = True
            self.size -= len(recording.instructions)


# A forked child inherits recordings that replay exactly what it would
# draw, so what ran earlier in a process never changes a result.
# fork-safe: per-process, content-addressed, result-invariant
_MEMO = _StreamMemo(MEMO_SEGMENTS)


def _replay(memo: _StreamMemo, key: _StreamKey) -> Iterator[Segment]:
    """Iterate ``key``'s stream through its recording in ``memo``.

    Recorded segments are rebuilt through the slot setters: they passed
    ``Segment.__init__``'s checks when drawn. Past the recorded end the
    iterator draws from the live generator and records what it draws.
    Once the recording is evicted it stops growing: the first iterator
    past its end takes the live generator over, and any other one
    redraws the stream from the start.
    """
    recording = memo.recording(key)
    instructions, cycles = recording.instructions, recording.cycles
    record_instructions, record_cycles = instructions.append, cycles.append
    # Replay binds the segment builders locally: it runs once per segment.
    new_segment, set_instructions = object.__new__, _set_instructions
    set_cycles, set_ends_with_miss = _set_cycles, _set_ends_with_miss
    set_miss_latency = _set_miss_latency
    position = 0
    while True:
        end = len(instructions)
        if position < end:
            while position < end:
                segment = new_segment(Segment)
                set_instructions(segment, instructions[position])
                set_cycles(segment, cycles[position])
                set_ends_with_miss(segment, True)
                set_miss_latency(segment, None)
                position += 1
                yield segment
            continue  # the columns may have grown while this one replayed
        live = recording.live
        if recording.evicted:
            if live is None:
                yield from itertools.islice(_generate(*key), position, None)
            else:
                recording.live = None
                del recording, instructions, cycles, record_instructions, record_cycles
                yield from live
            return
        capacity = memo.capacity
        for segment in live:  # type: ignore[union-attr]
            if segment.ends_with_miss is not True or segment.miss_latency is not None:
                raise WorkloadError(
                    "a synthetic segment must end with a default-latency "
                    f"miss: {segment}"
                )
            record_instructions(segment.instructions)
            record_cycles(segment.cycles)
            position += 1
            memo.size += 1
            if memo.size > capacity:
                memo.evict()
            yield segment
            # Another iterator may have drawn ahead, or the recording
            # been evicted, while this one was suspended.
            if position != len(instructions) or recording.evicted:
                break
        else:
            return


def make_stream(
    phases: Sequence[Phase],
    seed: int = 0,
    skip_instructions: float = 0.0,
    name: str = "",
) -> SegmentStream:
    """A restartable stream cycling through ``phases`` forever.

    The stream is recorded once per process and replayed after that,
    unless every phase is constant: drawing from those costs no more
    than a replay.
    """
    if not phases:
        raise ConfigurationError("at least one phase is required")
    key = (tuple(phases), seed, skip_instructions)
    if all(
        phase.distribution.ipm_cv == 0 and phase.distribution.ipc_cv == 0
        for phase in key[0]
    ):
        return SegmentStream(lambda: _generate(*key), name=name)
    return SegmentStream(lambda: _replay(_MEMO, key), name=name)


def uniform_stream(
    ipc_no_miss: float,
    ipm: float,
    ipm_cv: float = 0.0,
    ipc_cv: float = 0.0,
    seed: int = 0,
    skip_instructions: float = 0.0,
    name: str = "",
) -> SegmentStream:
    """A single-phase stream (the common case)."""
    distribution = SegmentDistribution(ipc_no_miss, ipm, ipm_cv, ipc_cv)
    return make_stream(
        [Phase(distribution, math.inf)],
        seed=seed,
        skip_instructions=skip_instructions,
        name=name,
    )


def phased_stream(
    phases: Sequence[tuple[SegmentDistribution, float]],
    seed: int = 0,
    skip_instructions: float = 0.0,
    name: str = "",
) -> SegmentStream:
    """A stream alternating between phases, given (distribution, length)
    tuples; lengths are in instructions."""
    return make_stream(
        [Phase(dist, length) for dist, length in phases],
        seed=seed,
        skip_instructions=skip_instructions,
        name=name,
    )
