"""Pipelined front-side bus.

The paper's machine has a pipelined bus between the L2 and memory:
transfers overlap, but each occupies the bus for a fixed number of
cycles, so back-to-back misses queue behind each other by the transfer
occupancy rather than the full memory latency.
"""

from __future__ import annotations

from repro.errors import ConfigurationError

__all__ = ["PipelinedBus"]


class PipelinedBus:
    """Grants bus slots; each transfer holds the bus ``occupancy`` cycles."""

    __slots__ = ("occupancy", "_free_at", "transfers")

    def __init__(self, occupancy: int) -> None:
        if occupancy < 0:
            raise ConfigurationError("bus occupancy must be non-negative")
        self.occupancy = occupancy
        self._free_at = 0
        self.transfers = 0

    def request(self, now: int) -> int:
        """Schedule a transfer at or after ``now``; returns its start time."""
        start = max(now, self._free_at)
        self._free_at = start + self.occupancy
        self.transfers += 1
        return start
