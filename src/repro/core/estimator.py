"""Runtime estimation of single-thread performance (paper Sections 2, 3.1).

While threads run together in SOE mode, the mechanism estimates what
each thread's IPC *would have been* had it run alone (``IPC_ST_j``),
using the per-window hardware counters and Eq. 13. This module adds the
robustness details the simulators need on top of the raw equation:

* an empty window (the thread never ran -- possible only transiently,
  since the maximum-cycles quota guarantees every thread runs each
  ``Delta``) falls back to the previous estimate;
* otherwise each window's raw Eq. 13 estimate is used, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.counters import CounterSample
from repro.errors import ConfigurationError

__all__ = ["ThreadEstimate", "IpcStEstimator"]


@dataclass(frozen=True)
class ThreadEstimate:
    """One thread's derived characteristics for a sampling window."""

    ipm: float
    cpm: float
    ipc_st: float
    #: True when this estimate was carried over from a previous window
    #: because the thread retired nothing in the current one.
    carried_over: bool = False
    #: The event latency Eq. 13 was evaluated with (None = the
    #: estimator's configured constant). Set when the controller runs
    #: with runtime latency measurement (Section 6).
    miss_lat: Optional[float] = None


class IpcStEstimator:
    """Per-thread single-thread-IPC estimator fed by counter samples."""

    def __init__(
        self,
        num_threads: int,
        miss_lat: float,
    ) -> None:
        """
        Parameters
        ----------
        num_threads:
            Number of hardware thread contexts.
        miss_lat:
            Average memory access latency in cycles (Eq. 13's constant).
        """
        if num_threads < 1:
            raise ConfigurationError("need at least one thread")
        if miss_lat < 0:
            raise ConfigurationError("miss_lat must be non-negative")
        self._miss_lat = float(miss_lat)
        self._estimates: list[Optional[ThreadEstimate]] = [None] * num_threads

    @property
    def num_threads(self) -> int:
        return len(self._estimates)

    def update(
        self,
        thread_id: int,
        sample: CounterSample,
        miss_lat: Optional[float] = None,
    ) -> ThreadEstimate:
        """Fold one window's sample into the thread's estimate.

        ``miss_lat`` overrides the configured constant for this window
        (used with runtime latency measurement, Section 6).
        """
        previous = self._estimates[thread_id]
        latency = self._miss_lat if miss_lat is None else miss_lat
        if sample.is_empty:
            if previous is not None:
                estimate = ThreadEstimate(
                    previous.ipm,
                    previous.cpm,
                    previous.ipc_st,
                    carried_over=True,
                    miss_lat=previous.miss_lat,
                )
            else:
                # No information at all yet: report a null estimate; the
                # quota computation treats it as "do not force switches".
                estimate = ThreadEstimate(0.0, 0.0, 0.0, carried_over=True)
        else:
            estimate = ThreadEstimate(
                sample.ipm,
                sample.cpm,
                sample.estimated_single_thread_ipc(latency),
                miss_lat=miss_lat,
            )
        self._estimates[thread_id] = estimate
        return estimate

    def update_all(
        self,
        samples: Sequence[CounterSample],
        miss_lats: Optional[Sequence[float]] = None,
    ) -> list[ThreadEstimate]:
        """Fold one window's samples for every thread, in thread order."""
        if len(samples) != self.num_threads:
            raise ConfigurationError(
                f"expected {self.num_threads} samples, got {len(samples)}"
            )
        if miss_lats is not None and len(miss_lats) != self.num_threads:
            raise ConfigurationError(
                f"expected {self.num_threads} latencies, got {len(miss_lats)}"
            )
        return [
            self.update(
                tid, sample, None if miss_lats is None else miss_lats[tid]
            )
            for tid, sample in enumerate(samples)
        ]

    def estimate(self, thread_id: int) -> Optional[ThreadEstimate]:
        """The latest estimate for a thread, or None before any sample."""
        return self._estimates[thread_id]

    @property
    def estimates(self) -> list[Optional[ThreadEstimate]]:
        """Latest estimates for all threads (None before the first sample)."""
        return list(self._estimates)
