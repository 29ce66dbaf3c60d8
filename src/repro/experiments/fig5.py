"""Figure 5: detailed examination of the gcc:eon pair.

Three time-series views of one run (fairness enforced to 1/4), sampled
every ``Delta`` = 250,000 cycles:

* **top** -- each thread's *estimated* single-thread IPC (Eq. 13, from
  the hardware counters) against its *real* single-thread IPC over the
  same instruction region of a dedicated run. The paper's observation:
  the estimate closely tracks the real value and is usually slightly
  lower (out-of-order overlap and resource sharing are unavailable or
  degraded in SOE mode).
* **middle** -- per-thread speedups with and without enforcement:
  without enforcement gcc almost starves; with F = 1/4 it runs an order
  of magnitude faster.
* **bottom** -- achieved fairness over time.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Optional

from repro.core.controller import FairnessController
from repro.engine.recorder import IntervalRecorder
from repro.engine.segments import SegmentStream
from repro.engine.soe import RunLimits, SoeEngine
from repro.experiments.common import EvalConfig, format_table
from repro.metrics.summary import mean
from repro.workloads.pairs import BenchmarkPair

__all__ = ["SingleThreadTimeline", "Fig5Result", "run", "render"]

#: The examined pair.
PAIR = BenchmarkPair("gcc", "eon")

#: The fairness level of the enforced run (Figure 5's F = 1/4).
FAIRNESS_TARGET = 0.25


class SingleThreadTimeline:
    """Instruction-indexed timeline of a dedicated single-thread run.

    Maps instruction positions to cumulative single-thread cycles so the
    *real* IPC_ST over any instruction region of the workload can be
    recovered -- which is what Figure 5 (top) compares the runtime
    estimate against.
    """

    def __init__(
        self,
        stream: SegmentStream,
        miss_lat: float,
        total_instructions: float,
    ) -> None:
        self._instructions = [0.0]
        self._cycles = [0.0]
        retired = 0.0
        cycles = 0.0
        for segment in stream.segments():
            retired += segment.instructions
            cycles += segment.cycles
            if segment.ends_with_miss:
                cycles += (
                    miss_lat
                    if segment.miss_latency is None
                    else segment.miss_latency
                )
            self._instructions.append(retired)
            self._cycles.append(cycles)
            if retired >= total_instructions:
                break

    def cycles_at(self, instructions: float) -> float:
        """Cumulative single-thread cycles after ``instructions`` retired
        (linear interpolation within a segment)."""
        idx = bisect.bisect_left(self._instructions, instructions)
        if idx >= len(self._instructions):
            idx = len(self._instructions) - 1
        # repro-lint: disable=RL004 - exact bisect hit returns the sample as-is
        if self._instructions[idx] == instructions or idx == 0:
            return self._cycles[idx]
        i0, i1 = self._instructions[idx - 1], self._instructions[idx]
        c0, c1 = self._cycles[idx - 1], self._cycles[idx]
        fraction = (instructions - i0) / (i1 - i0)
        return c0 + fraction * (c1 - c0)

    def ipc_over(self, start_instructions: float, end_instructions: float) -> float:
        """Real single-thread IPC over an instruction region."""
        if end_instructions <= start_instructions:
            return 0.0
        cycles = self.cycles_at(end_instructions) - self.cycles_at(start_instructions)
        if cycles <= 0:
            return 0.0
        return (end_instructions - start_instructions) / cycles


@dataclass(frozen=True)
class Fig5Result:
    """The three panels' series, one sample per Delta boundary."""

    times: tuple[float, ...]
    #: panel 1: estimated vs real IPC_ST per thread
    estimated_ipc_st: tuple[tuple[float, float], ...]
    real_ipc_st: tuple[tuple[float, float], ...]
    #: panel 2: per-interval speedups, enforced (F = 1/4) run
    speedups_enforced: tuple[tuple[float, float], ...]
    #: panel 2: per-interval speedups, unenforced (F = 0) run
    speedups_unenforced: tuple[tuple[float, float], ...]
    #: panel 3: achieved fairness per interval (enforced run)
    fairness: tuple[float, ...]
    fairness_target: float
    pair_label: str

    def estimation_error(self, thread: int) -> float:
        """Mean relative error of the IPC_ST estimate for one thread."""
        errors = []
        for est, real in zip(self.estimated_ipc_st, self.real_ipc_st):
            if real[thread] > 0 and est[thread] > 0:
                errors.append(abs(est[thread] - real[thread]) / real[thread])
        return mean(errors) if errors else 0.0

    def estimate_is_usually_lower(self, thread: int) -> bool:
        """Section 5.1.1: the estimate is usually slightly below real."""
        below = sum(
            1
            for est, real in zip(self.estimated_ipc_st, self.real_ipc_st)
            if est[thread] > 0 and est[thread] <= real[thread] * 1.02
        )
        counted = sum(1 for est in self.estimated_ipc_st if est[thread] > 0)
        return counted > 0 and below >= counted / 2

    def starved_thread_improvement(self) -> float:
        """How much faster the starved thread runs with enforcement
        (mean speedup ratio, enforced over unenforced)."""
        enforced = mean([s[0] for s in self.speedups_enforced])
        unenforced = mean([s[0] for s in self.speedups_unenforced])
        if unenforced <= 0:
            return float("inf")
        return enforced / unenforced


def _run_recorded(
    config: EvalConfig, fairness_target: float
) -> tuple[IntervalRecorder, Optional[FairnessController]]:
    streams = PAIR.streams(seed=config.seed)
    recorder = IntervalRecorder(interval=config.sample_period)
    controller = None
    if fairness_target > 0:
        controller = FairnessController(
            len(streams), config.fairness_params(fairness_target)
        )
    engine = SoeEngine(streams, controller, config.soe_params(), recorder=recorder)
    engine.run(RunLimits(min_instructions=config.min_instructions))
    return recorder, controller


def run(config: EvalConfig = EvalConfig()) -> Fig5Result:
    """Produce the Figure 5 series for :data:`PAIR` (gcc:eon)."""
    profiles = PAIR.profiles()
    enforced, controller = _run_recorded(config, FAIRNESS_TARGET)
    unenforced, _ = _run_recorded(config, 0.0)

    total = config.min_instructions * 4 + config.warmup_instructions
    timelines = [
        SingleThreadTimeline(
            stream, profile.single_thread_stall(config.miss_lat), total
        )
        for stream, profile in zip(PAIR.streams(seed=config.seed), profiles)
    ]

    assert controller is not None
    history = controller.history

    times = []
    estimated = []
    real = []
    speedups_enf = []
    fairness_series = []
    prev_cumulative = (0.0, 0.0)
    for sample, point in zip(enforced.samples, history):
        times.append(sample.time)
        estimated.append(tuple(e.ipc_st for e in point.estimates))
        real_now = tuple(
            timelines[tid].ipc_over(prev_cumulative[tid], sample.cumulative_retired[tid])
            for tid in range(2)
        )
        real.append(real_now)
        speedup = tuple(
            sample.ipcs[tid] / real_now[tid] if real_now[tid] > 0 else 0.0
            for tid in range(2)
        )
        speedups_enf.append(speedup)
        positive = [s for s in speedup if s > 0]
        if len(positive) == 2:
            fairness_series.append(min(positive) / max(positive))
        else:
            fairness_series.append(0.0)
        prev_cumulative = sample.cumulative_retired

    speedups_unenf = []
    prev_cumulative = (0.0, 0.0)
    for sample in unenforced.samples[: len(times)]:
        real_now = tuple(
            timelines[tid].ipc_over(prev_cumulative[tid], sample.cumulative_retired[tid])
            for tid in range(2)
        )
        speedups_unenf.append(
            tuple(
                sample.ipcs[tid] / real_now[tid] if real_now[tid] > 0 else 0.0
                for tid in range(2)
            )
        )
        prev_cumulative = sample.cumulative_retired

    n = min(len(times), len(speedups_unenf))
    return Fig5Result(
        times=tuple(times[:n]),
        estimated_ipc_st=tuple(estimated[:n]),
        real_ipc_st=tuple(real[:n]),
        speedups_enforced=tuple(speedups_enf[:n]),
        speedups_unenforced=tuple(speedups_unenf[:n]),
        fairness=tuple(fairness_series[:n]),
        fairness_target=FAIRNESS_TARGET,
        pair_label=PAIR.label,
    )


def render(result: Fig5Result) -> str:
    """Tabulate the series plus the paper's qualitative checks."""
    rows = []
    for i, time in enumerate(result.times):
        rows.append(
            [
                f"{time / 1e6:.2f}M",
                f"{result.estimated_ipc_st[i][0]:.2f}/{result.real_ipc_st[i][0]:.2f}",
                f"{result.estimated_ipc_st[i][1]:.2f}/{result.real_ipc_st[i][1]:.2f}",
                f"{result.speedups_enforced[i][0]:.3f}",
                f"{result.speedups_enforced[i][1]:.3f}",
                f"{result.speedups_unenforced[i][0]:.3f}",
                f"{result.fairness[i]:.3f}",
            ]
        )
    table = format_table(
        [
            "cycles",
            "t1 est/real IPC_ST",
            "t2 est/real IPC_ST",
            "t1 speedup(F)",
            "t2 speedup(F)",
            "t1 speedup(F=0)",
            "fairness",
        ],
        rows,
        title=(
            f"Figure 5: {result.pair_label} with F = {result.fairness_target:g} "
            f"(one row per Delta)"
        ),
    )
    notes = (
        f"\nestimation error: t1 {result.estimation_error(0):.1%}, "
        f"t2 {result.estimation_error(1):.1%}; "
        f"starved-thread speedup gain: "
        f"{result.starved_thread_improvement():.1f}x"
    )
    from repro.metrics.ascii_chart import line_chart

    chart = line_chart(
        {
            "t1 speedup (enforced)": [s[0] for s in result.speedups_enforced],
            "t1 speedup (F=0)": [s[0] for s in result.speedups_unenforced],
            "fairness": list(result.fairness),
        },
        x_values=list(result.times),
        y_label="(x axis: cycles)",
        height=12,
    )
    return table + notes + "\n\n" + chart
