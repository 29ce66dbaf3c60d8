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
see the same workload.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from repro.engine.segments import Segment, SegmentStream
from repro.errors import ConfigurationError

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

        When both coefficients of variation are zero, ``draw`` consumes
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

    def draw(self, rng: random.Random) -> Segment:
        """Draw one segment."""
        return self.sampler(rng)()


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


def make_stream(
    phases: Sequence[Phase],
    seed: int = 0,
    skip_instructions: float = 0.0,
    name: str = "",
) -> SegmentStream:
    """A restartable stream cycling through ``phases`` forever."""
    if not phases:
        raise ConfigurationError("at least one phase is required")
    phase_list = list(phases)
    return SegmentStream(
        lambda: _generate(phase_list, seed, skip_instructions), name=name
    )


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
