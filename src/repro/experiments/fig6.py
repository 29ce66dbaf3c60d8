"""Figure 6: SOE throughput per pair, with and without enforcement.

For every benchmark combination the figure stacks the two threads'
``IPC_SOE_j`` (their sum is Eq. 10's total throughput) at each fairness
level, next to the threads' single-thread IPCs. The headline numbers
are the average speedups of SOE over single thread: the paper reports
24%, 21%, 19% and 15% for F = 0, 1/4, 1/2 and 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.experiments.common import EvalConfig, PairResult, format_table
from repro.experiments.runner import run_grid
from repro.metrics.summary import mean
from repro.metrics.throughput import soe_speedup_over_single_thread

__all__ = ["Fig6Result", "run", "render"]


@dataclass(frozen=True)
class Fig6Result:
    pairs: list[PairResult]
    fairness_levels: tuple[float, ...]

    def average_speedup(self, level: float) -> float:
        """Average SOE-over-single-thread speedup at one fairness level
        (the paper's 24/21/19/15% series), as a gain (0.24 = +24%)."""
        gains = [
            soe_speedup_over_single_thread(p.runs[level].total_ipc, p.ipc_st) - 1.0
            for p in self.pairs
        ]
        return mean(gains)

    def speedup_ladder(self) -> dict[float, float]:
        """Average speedup at every fairness level, F = 0 first."""
        return {
            level: self.average_speedup(level)
            for level in sorted(self.fairness_levels)
        }


def run(
    config: EvalConfig = EvalConfig(),
    pairs: Optional[Sequence[PairResult]] = None,
) -> Fig6Result:
    """Run (or reuse) the evaluation grid and assemble Figure 6."""
    results = list(pairs) if pairs is not None else run_grid(config).results
    return Fig6Result(pairs=results, fairness_levels=config.fairness_levels)


def render(result: Fig6Result) -> str:
    levels = sorted(result.fairness_levels)
    headers = ["pair", "IPC_ST (t1/t2)"] + [f"IPC_SOE @ F={f:g}" for f in levels]
    rows = []
    for pair_result in result.pairs:
        row = [
            pair_result.pair.label,
            f"{pair_result.ipc_st[0]:.2f}/{pair_result.ipc_st[1]:.2f}",
        ]
        for level in levels:
            run_result = pair_result.runs[level]
            ipcs = run_result.ipcs
            row.append(f"{ipcs[0]:.2f}+{ipcs[1]:.2f}={run_result.total_ipc:.2f}")
        rows.append(row)
    ladder = "  ".join(
        f"F={level:g}: {gain:+.1%}" for level, gain in result.speedup_ladder().items()
    )
    return (
        format_table(headers, rows, title="Figure 6: per-pair SOE throughput (stacked)")
        + f"\naverage SOE speedup over single thread: {ladder}"
        + "\n(paper: F=0 +24%, F=1/4 +21%, F=1/2 +19%, F=1 +15%)"
    )
