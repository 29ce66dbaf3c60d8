"""Shared infrastructure for the paper-reproduction experiments.

:class:`EvalConfig` is the one source of run lengths, machine latencies
and the stream seed: every registered experiment's ``run()`` takes it as
``config`` and defaults to ``EvalConfig()``. Every engine run builds its
machine, mechanism and window from it (:meth:`EvalConfig.soe_params`,
:meth:`EvalConfig.fairness_params`, :meth:`EvalConfig.run_limits`) and
layers what it fixes on purpose with :func:`dataclasses.replace`. The
evaluation figures (6,
7, 8) all consume the same grid of runs -- every benchmark pair at every
fairness level, plus each benchmark's single-thread reference -- so
:func:`repro.experiments.runner.run_grid` produces that grid once, as
:class:`PairResult` objects, and the figure modules post-process it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.controller import FairnessParams
from repro.core.model import ThreadParams
from repro.core.policies import PolicyConfig, get_policy
from repro.engine.results import SoeRunResult
from repro.engine.segments import SegmentStream
from repro.engine.singlethread import run_single_thread
from repro.engine.soe import RunLimits, SoeParams
from repro.errors import ConfigurationError
from repro.workloads.pairs import BenchmarkPair
from repro.workloads.synthetic import uniform_stream

__all__ = [
    "EXAMPLE2_THREADS",
    "EvalConfig",
    "PairResult",
    "example2_streams",
    "format_table",
    "synthetic_ipc_st",
]

#: The fairness levels evaluated in the paper.
PAPER_FAIRNESS_LEVELS = (0.0, 0.25, 0.5, 1.0)


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation-wide configuration (Section 4.1 defaults, scaled).

    The paper simulates >= 6M instructions per thread after a 1M
    instruction warmup; the default here is a 1.5M/1M scale that keeps a
    full 16-pair sweep to a few seconds while preserving every result's
    shape (segments are stationary, so the window length only controls
    statistical noise). :meth:`paper_scale` restores the original
    lengths.
    """

    miss_lat: float = 300.0
    switch_lat: float = 25.0
    max_cycles_quota: float = 50_000.0
    sample_period: float = 250_000.0
    min_instructions: float = 1_500_000.0
    warmup_instructions: float = 1_000_000.0
    st_min_instructions: float = 1_000_000.0
    fairness_levels: tuple[float, ...] = PAPER_FAIRNESS_LEVELS
    seed: int = 0
    #: Which registered switch policy enforces the non-zero fairness
    #: levels (:mod:`repro.core.policies`). The default is the paper's
    #: mechanism; level 0 is always the unenforced baseline regardless
    #: of the policy.
    policy: str = "fairness"
    #: Overrides for the policy's parameter schema, as sorted
    #: ``(name, value)`` pairs.
    policy_params: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if not self.fairness_levels:
            raise ConfigurationError("at least one fairness level is required")
        if 0.0 not in self.fairness_levels:
            raise ConfigurationError(
                "fairness level 0 (the baseline) must be included"
            )
        get_policy(self.policy)  # raises for unknown policy names
        # Canonical parameter order keeps equal configs equal, which is
        # what cache keys and checkpoint fingerprints hash.
        object.__setattr__(
            self, "policy_params", tuple(sorted(self.policy_params))
        )
        # Validate parameter names, machine parameters and run lengths
        # eagerly so a bad config fails at construction (or at service
        # admission), not inside a worker process.
        self.policy_config(1.0)
        self.fairness_params(1.0)
        self.soe_params()
        self.run_limits()
        RunLimits(min_instructions=self.st_min_instructions)

    @classmethod
    def paper_scale(cls) -> "EvalConfig":
        """The paper's run lengths (6M instructions + 1M warmup)."""
        return cls(min_instructions=6_000_000.0, warmup_instructions=1_000_000.0,
                   st_min_instructions=5_000_000.0)

    @classmethod
    def quick(cls) -> "EvalConfig":
        """A reduced scale for smoke tests and CI."""
        return cls(
            sample_period=100_000.0,
            min_instructions=400_000.0,
            warmup_instructions=200_000.0,
            st_min_instructions=300_000.0,
        )

    def soe_params(self) -> SoeParams:
        return SoeParams(
            miss_lat=self.miss_lat,
            switch_lat=self.switch_lat,
            max_cycles_quota=self.max_cycles_quota,
        )

    def run_limits(self) -> RunLimits:
        return RunLimits(
            min_instructions=self.min_instructions,
            warmup_instructions=self.warmup_instructions,
        )

    def fairness_params(self, target: float) -> FairnessParams:
        return FairnessParams(
            fairness_target=target,
            miss_lat=self.miss_lat,
            sample_period=self.sample_period,
        )

    def policy_config(self, level: float) -> PolicyConfig:
        """The :class:`PolicyConfig` enforcing one fairness level."""
        return PolicyConfig(
            name=self.policy,
            level=level,
            miss_lat=self.miss_lat,
            sample_period=self.sample_period,
            params=self.policy_params,
        )


#: Example 2's thread pair (Section 2): both threads retire 2.5
#: instructions per cycle between misses; thread 1 misses every 15,000
#: instructions, thread 2 every 1,000.
EXAMPLE2_THREADS = (ThreadParams(2.5, 15_000.0), ThreadParams(2.5, 1_000.0))


def example2_streams(seed: int) -> list[SegmentStream]:
    """Example 2's pair as segment streams (stream seeds ``2*seed+1``
    and ``2*seed+2``)."""
    return [
        uniform_stream(thread.ipc_no_miss, thread.ipm, seed=2 * seed + index)
        for index, thread in enumerate(EXAMPLE2_THREADS, start=1)
    ]


def synthetic_ipc_st(
    streams: Sequence[SegmentStream], config: EvalConfig
) -> list[float]:
    """Each stream's IPC run alone on ``config``'s machine for
    ``config.st_min_instructions`` (the grid's single-thread run
    length): the single-thread reference the synthetic-workload
    experiments measure speedups against."""
    return [
        run_single_thread(
            stream, config.miss_lat, min_instructions=config.st_min_instructions
        ).ipc
        for stream in streams
    ]


@dataclass(frozen=True)
class PairResult:
    """All runs for one benchmark pair."""

    pair: BenchmarkPair
    #: measured real single-thread IPC per thread (run alone, with each
    #: benchmark's overlapped miss stall)
    ipc_st: tuple[float, float]
    #: SOE run per fairness level (key 0.0 is the unenforced baseline)
    runs: dict[float, SoeRunResult] = field(default_factory=dict)

    @property
    def baseline(self) -> SoeRunResult:
        if 0.0 not in self.runs:
            raise ConfigurationError(
                f"pair {self.pair.label} has no F=0 baseline run; "
                "normalization needs fairness level 0 in the grid "
                f"(levels present: {sorted(self.runs)})"
            )
        return self.runs[0.0]

    def _run_at(self, level: float) -> SoeRunResult:
        if level not in self.runs:
            raise ConfigurationError(
                f"pair {self.pair.label} was not run at fairness level "
                f"{level:g} (levels present: {sorted(self.runs)})"
            )
        return self.runs[level]

    def achieved_fairness(self, level: float) -> float:
        return self._run_at(level).achieved_fairness(self.ipc_st)

    def normalized_throughput(self, level: float) -> float:
        baseline_ipc = self.baseline.total_ipc
        if baseline_ipc <= 0.0:
            raise ConfigurationError(
                f"pair {self.pair.label} has an idle F=0 baseline "
                "(total IPC is 0); throughput cannot be normalized -- "
                "check the run limits and workload streams"
            )
        return self._run_at(level).total_ipc / baseline_ipc


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Render a simple aligned ASCII table."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
