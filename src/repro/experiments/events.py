"""Section 6 extension: variable-latency switch events.

The base mechanism assumes every switch event stalls for the memory
latency (300 cycles). Section 6 extends SOE to other events -- L1
misses that may hit the L2, explicit pause hints -- whose latencies
vary, and proposes measuring them with hardware counters.

This experiment builds a workload whose events are a mixture of short
(L2-hit, ~40 cycles) and long (memory, 300 cycles) stalls, pairs it
with a conventional compute thread, and enforces the same target
fairness under three latency configurations:

* ``assumed 300`` -- the unmodified mechanism: badly wrong for the
  mixed-event thread, whose estimated IPC_ST is far too low, inflating
  its quota and overshooting its share;
* ``oracle`` -- the mixture's true rate-weighted mean latency, hand
  computed: what perfect calibration achieves;
* ``measured`` -- the Section 6 proposal: per-thread latency monitors
  feeding the estimator each ``Delta``; should match the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.controller import FairnessController, FairnessParams
from repro.engine.singlethread import run_single_thread
from repro.engine.segments import SegmentStream
from repro.engine.soe import SoeParams, run_soe
from repro.experiments.common import EvalConfig, format_table
from repro.workloads.events import EventType, mean_event_latency, multi_event_stream
from repro.workloads.synthetic import uniform_stream

__all__ = ["EventsRow", "EventsResult", "run", "render"]

#: The mixed-event thread: an L1-missing streaming phase (short stalls)
#: with occasional memory misses.
MIXED_EVENTS = (
    EventType(ipm=600.0, latency=40.0),
    EventType(ipm=6_000.0, latency=300.0),
)
MIXED_IPC = 2.0
#: The partner: a conventional compute-bound thread (memory misses only).
PARTNER_IPC = 2.6
PARTNER_IPM = 20_000.0


@dataclass(frozen=True)
class EventsRow:
    configuration: str
    assumed_latency: Optional[float]
    total_ipc: float
    achieved_fairness: float
    measured_latency: Optional[float]


@dataclass(frozen=True)
class EventsResult:
    fairness_target: float
    true_mean_latency: float
    rows: list[EventsRow]

    def row(self, configuration: str) -> EventsRow:
        return next(r for r in self.rows if r.configuration == configuration)

    @property
    def measurement_closes_the_gap(self) -> bool:
        """True when measured latencies recover (most of) the accuracy
        the wrong constant loses."""
        target = self.fairness_target
        wrong = abs(self.row("assumed 300").achieved_fairness - target)
        measured = abs(self.row("measured").achieved_fairness - target)
        return measured < wrong


def _streams(seed_base: int) -> list[SegmentStream]:
    return [
        multi_event_stream(MIXED_IPC, MIXED_EVENTS, seed=seed_base + 31,
                           name="mixed-events"),
        uniform_stream(PARTNER_IPC, PARTNER_IPM, ipm_cv=0.5, seed=seed_base + 32,
                       name="partner"),
    ]


def run(
    fairness_target: float = 0.5,
    config: EvalConfig = EvalConfig(),
) -> EventsResult:
    seed_base = 2 * config.seed
    params = SoeParams(miss_lat=300.0, switch_lat=25.0)
    ipc_st = [
        run_single_thread(
            stream, miss_lat=300.0, min_instructions=config.min_instructions
        ).ipc
        for stream in _streams(seed_base)
    ]
    true_mean = mean_event_latency(MIXED_EVENTS)
    limits = config.run_limits()

    configurations = [
        ("assumed 300", FairnessParams(fairness_target=fairness_target,
                                       miss_lat=300.0)),
        ("oracle", FairnessParams(fairness_target=fairness_target,
                                  miss_lat=true_mean)),
        ("measured", FairnessParams(fairness_target=fairness_target,
                                    miss_lat=300.0,
                                    measure_miss_latency=True)),
    ]
    rows = []
    for label, fairness_params in configurations:
        controller = FairnessController(2, fairness_params)
        result = run_soe(_streams(seed_base), controller, params, limits)
        measured = controller.measured_latencies
        rows.append(
            EventsRow(
                configuration=label,
                assumed_latency=(
                    None if fairness_params.measure_miss_latency
                    else fairness_params.miss_lat
                ),
                total_ipc=result.total_ipc,
                achieved_fairness=result.achieved_fairness(ipc_st),
                measured_latency=None if measured is None else measured[0],
            )
        )
    return EventsResult(
        fairness_target=fairness_target, true_mean_latency=true_mean, rows=rows
    )


def render(result: EventsResult) -> str:
    rows = []
    for row in result.rows:
        rows.append(
            [
                row.configuration,
                "-" if row.assumed_latency is None else f"{row.assumed_latency:.0f}",
                f"{row.total_ipc:.3f}",
                f"{row.achieved_fairness:.3f}",
                "-" if row.measured_latency is None else f"{row.measured_latency:.0f}",
            ]
        )
    return (
        format_table(
            ["latency config", "assumed", "IPC_SOE", "achieved fairness",
             "measured (t1)"],
            rows,
            title=(
                f"Section 6 extension: variable-latency events at "
                f"F = {result.fairness_target:g} "
                f"(true mean latency {result.true_mean_latency:.0f} cycles)"
            ),
        )
        + "\n(the measured configuration should match the oracle; assuming the"
        + "\n 300-cycle memory constant misestimates the mixed-event thread)"
    )
