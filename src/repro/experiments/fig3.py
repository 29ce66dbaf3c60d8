"""Figure 3: the analytical fairness/throughput tradeoff.

Figure 3 sweeps the target fairness F for two-thread combinations with
different per-thread ``IPC_no_miss`` and ``IPM`` values and plots the
resulting throughput change (relative to no enforcement, F = 0). The
paper's observations, all reproduced by this sweep:

* when both threads share the same ``IPC_no_miss`` (the [2.5, 2.5]
  lines), enforcement costs at most a few percent;
* with different ``IPC_no_miss`` values, degradation can reach ~15% --
  or throughput can *improve* by ~10% when enforcement biases execution
  towards the thread with the higher ``IPC_no_miss``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.model import SoeModel, ThreadParams
from repro.experiments.common import EvalConfig, format_table
from repro.metrics.ascii_chart import line_chart

__all__ = ["Fig3Series", "Fig3Result", "run", "render", "PAPER_CASES"]

#: Thread-pair cases mirroring Figure 3's legend:
#: IPC_no_miss = [a, b], IPM = [x, y].
PAPER_CASES: tuple[tuple[tuple[float, float], tuple[float, float]], ...] = (
    ((2.5, 2.5), (15_000.0, 1_000.0)),
    ((2.5, 2.5), (5_000.0, 1_000.0)),
    ((2.5, 2.5), (2_000.0, 1_000.0)),
    ((2.0, 3.0), (15_000.0, 1_000.0)),
    ((2.0, 3.0), (5_000.0, 1_000.0)),
    ((3.0, 2.0), (15_000.0, 1_000.0)),
    ((3.0, 2.0), (5_000.0, 1_000.0)),
)

#: Number of evenly spaced target-fairness points in [0, 1].
STEPS = 21


@dataclass(frozen=True)
class Fig3Series:
    """One legend line: throughput change vs. target fairness."""

    ipc_no_miss: tuple[float, float]
    ipm: tuple[float, float]
    fairness_targets: tuple[float, ...]
    throughput_change: tuple[float, ...]

    @property
    def label(self) -> str:
        return (
            f"IPC_no_miss=[{self.ipc_no_miss[0]:g},{self.ipc_no_miss[1]:g}], "
            f"IPM=[{self.ipm[0]:g},{self.ipm[1]:g}]"
        )


@dataclass(frozen=True)
class Fig3Result:
    series: list[Fig3Series]

    def max_degradation(self) -> float:
        return min(min(s.throughput_change) for s in self.series)

    def max_improvement(self) -> float:
        return max(max(s.throughput_change) for s in self.series)


def run(config: EvalConfig = EvalConfig()) -> Fig3Result:
    """Sweep F in [0, 1] for each of the :data:`PAPER_CASES` through the
    analytical model at ``config``'s miss and switch latencies."""
    targets = tuple(i / (STEPS - 1) for i in range(STEPS))
    series = []
    for ipcs, ipms in PAPER_CASES:
        model = SoeModel(
            [ThreadParams(ipcs[0], ipms[0]), ThreadParams(ipcs[1], ipms[1])],
            miss_lat=config.miss_lat,
            switch_lat=config.switch_lat,
        )
        changes = tuple(model.throughput_change(f) for f in targets)
        series.append(
            Fig3Series(
                ipc_no_miss=ipcs,
                ipm=ipms,
                fairness_targets=targets,
                throughput_change=changes,
            )
        )
    return Fig3Result(series=series)


def render(result: Fig3Result) -> str:
    """Tabulate each series at a few representative F values."""
    sample_points = (0.0, 0.25, 0.5, 0.75, 1.0)
    rows = []
    for series in result.series:
        row = [series.label]
        for point in sample_points:
            idx = min(
                range(len(series.fairness_targets)),
                key=lambda i: abs(series.fairness_targets[i] - point),
            )
            row.append(f"{series.throughput_change[idx]:+.1%}")
        rows.append(row)
    headers = ["case"] + [f"F={p:g}" for p in sample_points]
    summary = (
        f"\nmax degradation: {result.max_degradation():+.1%}; "
        f"max improvement: {result.max_improvement():+.1%}"
    )
    chart = line_chart(
        {s.label: list(s.throughput_change) for s in result.series},
        x_values=list(result.series[0].fairness_targets),
        y_label="throughput change vs F (x axis: enforced fairness F)",
    )
    return (
        format_table(headers, rows,
                     title="Figure 3: throughput change vs enforced fairness "
                           "(analytical model)")
        + summary
        + "\n\n"
        + chart
    )
