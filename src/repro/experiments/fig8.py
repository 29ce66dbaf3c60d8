"""Figure 8: achieved fairness, with and without enforcement.

Left panel: achieved fairness of every run at each fairness level,
with runs ordered by their unenforced (F = 0) fairness. Right panel:
the mean and standard deviation of ``min(F, achieved)`` across runs --
truncation removes the bias of runs that are fair without enforcement.
The paper's observations:

* even the most unfair pairs reach close to the target;
* enforcement barely perturbs pairs that were already fair;
* accuracy degrades as the target approaches 1 (forced switches perturb
  the estimator the mechanism relies on).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.experiments.common import EvalConfig, PairResult, format_table
from repro.experiments.runner import run_grid
from repro.metrics.ascii_chart import line_chart
from repro.metrics.report import FairnessSummary, summarize_achieved_fairness

__all__ = ["Fig8Result", "run", "render"]


@dataclass(frozen=True)
class Fig8Result:
    #: pair results ordered by unenforced fairness (the x-axis of the
    #: left panel)
    pairs: list[PairResult]
    fairness_levels: tuple[float, ...]

    def achieved_series(self, level: float) -> list[float]:
        """One left-panel line: achieved fairness per run."""
        return [p.achieved_fairness(level) for p in self.pairs]

    def summary(self, level: float) -> FairnessSummary:
        """One right-panel bar: mean/std of min(F, achieved)."""
        return summarize_achieved_fairness(self.achieved_series(level), level)

    def unfair_run_fraction(self, threshold: float = 0.1) -> float:
        """Fraction of F = 0 runs below ``threshold`` (the paper: over a
        third of runs had one thread 10-100x slower)."""
        series = self.achieved_series(0.0)
        return sum(1 for value in series if value < threshold) / len(series)


def run(
    config: EvalConfig = EvalConfig(),
    pairs: Optional[Sequence[PairResult]] = None,
) -> Fig8Result:
    results = list(pairs) if pairs is not None else run_grid(config).results
    ordered = sorted(results, key=lambda p: p.achieved_fairness(0.0))
    return Fig8Result(pairs=ordered, fairness_levels=config.fairness_levels)


def render(result: Fig8Result) -> str:
    levels = sorted(result.fairness_levels)
    headers = ["pair"] + [f"achieved @F={level:g}" for level in levels]
    rows = []
    for pair_result in result.pairs:
        row = [pair_result.pair.label]
        for level in levels:
            row.append(f"{pair_result.achieved_fairness(level):.3f}")
        rows.append(row)
    summaries = []
    for level in levels:
        summary = result.summary(level)
        summaries.append(
            f"F={level:g}: mean min(F, achieved) = {summary.mean:.3f} "
            f"(std {summary.stdev:.3f})"
        )
    chart = line_chart(
        {f"F={level:g}": result.achieved_series(level) for level in levels},
        y_label="achieved fairness (x axis: runs ordered by F=0 fairness)",
        height=12,
    )
    return (
        format_table(
            headers, rows,
            title="Figure 8 (left): achieved fairness, runs ordered by F=0 fairness",
        )
        + "\n\n"
        + chart
        + "\n\nFigure 8 (right): truncated averages\n"
        + "\n".join(summaries)
        + f"\nfraction of F=0 runs with fairness < 0.1: "
        + f"{result.unfair_run_fraction():.0%} (paper: over a third)"
    )
