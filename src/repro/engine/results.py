"""Result types produced by the engine runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.fairness import fairness_from_ipcs, speedups
from repro.errors import ConfigurationError

__all__ = ["ThreadStats", "SoeRunResult", "SingleThreadResult"]


@dataclass(frozen=True)
class ThreadStats:
    """Per-thread statistics over the measured window of an SOE run."""

    retired: float
    run_cycles: float
    misses: int
    miss_switches: int
    forced_switches: int
    cycle_quota_switches: int

    @property
    def switches(self) -> int:
        return self.miss_switches + self.forced_switches + self.cycle_quota_switches


@dataclass(frozen=True)
class SoeRunResult:
    """Outcome of one multithreaded SOE run (post-warmup window).

    ``cycles`` is the wall-clock length of the measured window;
    per-thread IPCs divide each thread's retired instructions by that
    same shared window, matching the paper's ``IPC_SOE_j`` definition.
    """

    cycles: float
    threads: tuple[ThreadStats, ...]
    idle_cycles: float
    switch_overhead_cycles: float

    def __post_init__(self) -> None:
        if self.cycles <= 0:
            raise ConfigurationError("a run result needs a positive window")

    @property
    def num_threads(self) -> int:
        return len(self.threads)

    @property
    def ipcs(self) -> list[float]:
        """Per-thread ``IPC_SOE_j`` over the measured window."""
        return [t.retired / self.cycles for t in self.threads]

    @property
    def total_ipc(self) -> float:
        """``IPC_SOE`` -- total throughput (Eq. 10's measured analogue).

        Summed left to right in a plain loop: from Python 3.12 the
        builtin ``sum`` of floats is compensated, which would make the
        last bit depend on the interpreter version.
        """
        total = 0.0
        for ipc in self.ipcs:
            total += ipc
        return total

    @property
    def total_switches(self) -> int:
        return sum(t.switches for t in self.threads)

    @property
    def forced_switches(self) -> int:
        """Switches induced by the fairness quota (they hide no miss)."""
        return sum(t.forced_switches for t in self.threads)

    def forced_switches_per_kcycle(self) -> float:
        """Forced switches per 1000 cycles (Figure 7's second series)."""
        return 1000.0 * self.forced_switches / self.cycles

    def speedups(self, ipc_st: Sequence[float]) -> list[float]:
        """Per-thread speedups given the threads' single-thread IPCs."""
        return speedups(self.ipcs, ipc_st)

    def achieved_fairness(self, ipc_st: Sequence[float]) -> float:
        """Eq. 4 evaluated on this run against reference IPC_ST values."""
        return fairness_from_ipcs(self.ipcs, ipc_st)


@dataclass(frozen=True)
class SingleThreadResult:
    """Outcome of running one workload alone on the machine."""

    retired: float
    cycles: float
    misses: int
    run_cycles: float = field(default=0.0)

    @property
    def ipc(self) -> float:
        """The thread's real ``IPC_ST``."""
        if self.cycles <= 0:
            raise ConfigurationError("single-thread run has an empty window")
        return self.retired / self.cycles
