"""Throughput metrics (paper Section 2.4, footnote 6)."""

from __future__ import annotations

from typing import Sequence

from repro.errors import ConfigurationError

__all__ = ["soe_speedup_over_single_thread"]


def soe_speedup_over_single_thread(
    total_soe_ipc: float, ipc_st: Sequence[float]
) -> float:
    """Footnote 6's "speedup of SOE over single thread".

    Total SOE throughput divided by the mean of the threads' single-
    thread IPCs: how much more work per cycle the machine delivers
    running the threads together than it would averaging dedicated runs.
    The paper reports 24% / 21% / 19% / 15% average speedups for
    F = 0, 1/4, 1/2, 1 under this measure.
    """
    if not ipc_st:
        raise ConfigurationError("at least one single-thread IPC is required")
    mean_st = sum(ipc_st) / len(ipc_st)
    if mean_st <= 0:
        raise ConfigurationError("single-thread IPCs must be positive")
    return total_soe_ipc / mean_st
