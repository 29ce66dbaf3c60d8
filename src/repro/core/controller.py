"""The paper's fairness-enforcement mechanism as a switch policy.

:class:`FairnessController` ties the pieces together exactly as
Section 3 describes:

1. three hardware counters per thread (:mod:`repro.core.counters`)
   accumulate ``Instrs``, ``Cycles`` and switch-causing ``Misses``;
2. every ``Delta`` cycles (the paper uses 250,000) the counters are
   sampled and each thread's single-thread IPC is estimated via Eq. 13
   (:mod:`repro.core.estimator`);
3. Eq. 9 converts the estimates into per-thread instruction quotas
   ``IPSw_j`` (:mod:`repro.core.quota`);
4. deficit counters (:mod:`repro.core.deficit`) enforce the quotas as a
   long-run *average* instructions-per-switch despite miss-induced
   early switches.

The controller is substrate-agnostic: it sees the machine only through
the :class:`~repro.core.policy.SwitchPolicy` callbacks, so the same
class drives both the segment-level engine and the detailed
out-of-order core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.core.deficit import DeficitPolicy
from repro.core.estimator import IpcStEstimator, ThreadEstimate
from repro.core.latency import MissLatencyMonitor
from repro.core.quota import quotas_from_estimates
from repro.errors import ConfigurationError
from repro.telemetry import CONTROLLER as _TRACE_CONTROLLER
from repro.telemetry import resolve_sink
from repro.telemetry.events import controller_sample
from repro.telemetry.sinks import TraceSink

__all__ = ["FairnessParams", "SamplePoint", "FairnessController"]


@dataclass(frozen=True)
class FairnessParams:
    """Configuration of the fairness-enforcement mechanism.

    Defaults match the paper's evaluation: ``Delta = 250,000`` cycles,
    ``miss_lat = 300`` cycles, no deficit cap.
    """

    fairness_target: float
    miss_lat: float = 300.0
    sample_period: float = 250_000.0
    deficit_cap: Optional[float] = None
    #: Section 6 extension: derive each thread's event latency from the
    #: latencies the substrate reports instead of assuming ``miss_lat``.
    #: Required for correct enforcement with variable-latency switch
    #: events (L1 misses, pause hints).
    measure_miss_latency: bool = False
    #: Prioritized fairness: per-thread weights; the mechanism targets
    #: speedup ratios proportional to the weights. None = equal shares.
    weights: Optional[tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.fairness_target <= 1.0:
            raise ConfigurationError(
                f"fairness target must be in [0, 1], got {self.fairness_target}"
            )
        if not (math.isfinite(self.miss_lat) and math.isfinite(self.sample_period)):
            raise ConfigurationError("miss_lat and sample_period must be finite")
        if self.miss_lat < 0:
            raise ConfigurationError("miss_lat must be non-negative")
        if self.sample_period <= 0:
            raise ConfigurationError("sample_period must be positive")
        if self.deficit_cap is not None and not 0 < self.deficit_cap < math.inf:
            raise ConfigurationError(f"deficit_cap must be finite and positive: {self}")
        if self.weights is not None and not all(0 < w < math.inf for w in self.weights):
            raise ConfigurationError(f"weights must be finite and positive: {self}")


@dataclass(frozen=True)
class SamplePoint:
    """One ``Delta`` boundary's outputs, kept for analysis/plotting."""

    time: float
    estimates: tuple[ThreadEstimate, ...]
    quotas: tuple[float, ...]
    #: instructions each thread retired during the window just closed
    window_instructions: tuple[float, ...] = field(default=())


class FairnessController(DeficitPolicy):
    """Runtime fairness enforcement (paper Sections 2.3, 3)."""

    def __init__(
        self,
        num_threads: int,
        params: FairnessParams,
        *,
        sink: Optional[TraceSink] = None,
    ) -> None:
        super().__init__(
            num_threads, sample_period=params.sample_period, cap=params.deficit_cap
        )
        if params.weights is not None and len(params.weights) != num_threads:
            raise ConfigurationError(
                f"expected {num_threads} weights, got {len(params.weights)}"
            )
        self.params = params
        self._estimator = IpcStEstimator(num_threads, params.miss_lat)
        self._latency_monitor: Optional[MissLatencyMonitor] = None
        if params.measure_miss_latency:
            self._latency_monitor = MissLatencyMonitor(num_threads, params.miss_lat)
            # Only a measuring controller needs each miss's latency;
            # the rest keep DeficitPolicy's plain miss counter.
            self.on_miss = self._count_and_measure_miss  # type: ignore[method-assign]
        self._history: list[SamplePoint] = []
        # Tracing is observation only: the resolved sink (explicit, or
        # the ambient one; None when tracing is off) never feeds back
        # into estimates, quotas, or deficits.
        self._trace = resolve_sink(sink)

    # ------------------------------------------------------------------
    # Introspection (used by recorders and experiments)
    # ------------------------------------------------------------------
    @property
    def estimates(self) -> list[Optional[ThreadEstimate]]:
        """Latest per-thread estimates (None before the first sample)."""
        return self._estimator.estimates

    @property
    def history(self) -> list[SamplePoint]:
        """All ``Delta`` boundaries seen so far, in time order."""
        return list(self._history)

    @property
    def measured_latencies(self) -> Optional[list[float]]:
        """Per-thread measured event latencies (None unless the
        controller runs with ``measure_miss_latency=True``)."""
        if self._latency_monitor is None:
            return None
        return self._latency_monitor.latencies()

    # ------------------------------------------------------------------
    # SwitchPolicy interface
    # ------------------------------------------------------------------
    def _count_and_measure_miss(
        self, thread_id: int, now: float, latency: Optional[float] = None
    ) -> None:
        """``on_miss`` of a controller with ``measure_miss_latency``."""
        self._misses[thread_id] += 1
        monitor = self._latency_monitor
        if monitor is not None and latency is not None:
            monitor.record(thread_id, latency)

    def on_boundary(self, now: float) -> None:
        """Recalculate estimates and quotas at a ``Delta`` boundary.

        The counters of the window just closed become the estimates for
        the next window (Section 3.1: "hardware counters of each Delta
        cycles are used as an estimation for the following Delta
        cycles").
        """
        samples = self.sample_and_reset(now)
        miss_lats = None
        if self._latency_monitor is not None:
            miss_lats = self._latency_monitor.sample_and_reset()
        estimates = self._estimator.update_all(samples, miss_lats)
        self._quotas = quotas_from_estimates(
            estimates,
            self.params.fairness_target,
            self.params.miss_lat,
            weights=self.params.weights,
        )
        self._history.append(
            SamplePoint(
                time=now,
                estimates=tuple(estimates),
                quotas=tuple(self._quotas),
                window_instructions=tuple(s.instructions for s in samples),
            )
        )
        if self._trace is not None and self._trace.wants(_TRACE_CONTROLLER):
            self._trace.emit(
                controller_sample(
                    time=now,
                    instructions=[s.instructions for s in samples],
                    cycles=[s.cycles for s in samples],
                    misses=[s.misses for s in samples],
                    ipc_st=[e.ipc_st for e in estimates],
                    quotas=list(self._quotas),
                    deficits=list(self._deficits),
                )
            )
