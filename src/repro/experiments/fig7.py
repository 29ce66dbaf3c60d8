"""Figure 7: throughput degradation due to fairness enforcement.

Per pair and fairness level: throughput normalized to the unenforced
(F = 0) run, alongside the number of quota-forced thread switches per
1000 cycles (forced switches hide no memory access; they are pure
overhead). The paper reports average degradations of 2.2%, 3.7% and
7.2% for F = 1/4, 1/2 and 1, and a strong correlation between the
forced-switch rate and the throughput loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.experiments.common import EvalConfig, PairResult, format_table
from repro.experiments.runner import run_grid
from repro.metrics.ascii_chart import bar_chart
from repro.metrics.summary import mean

__all__ = ["Fig7Result", "run", "render"]


@dataclass(frozen=True)
class Fig7Result:
    pairs: list[PairResult]
    fairness_levels: tuple[float, ...]

    @property
    def enforced_levels(self) -> list[float]:
        return sorted(level for level in self.fairness_levels if level > 0)

    def average_degradation(self, level: float) -> float:
        """Mean throughput loss vs F = 0 (positive = loss)."""
        return mean([1.0 - p.normalized_throughput(level) for p in self.pairs])

    def average_forced_switch_rate(self, level: float) -> float:
        """Mean forced switches per 1000 cycles."""
        return mean(
            [p.runs[level].forced_switches_per_kcycle() for p in self.pairs]
        )

    def degradation_correlates_with_forced_switches(self, level: float) -> float:
        """Pearson correlation between forced-switch rate and loss."""
        losses = [1.0 - p.normalized_throughput(level) for p in self.pairs]
        rates = [p.runs[level].forced_switches_per_kcycle() for p in self.pairs]
        n = len(losses)
        mean_l, mean_r = mean(losses), mean(rates)
        cov = sum((l - mean_l) * (r - mean_r) for l, r in zip(losses, rates)) / n
        var_l = sum((l - mean_l) ** 2 for l in losses) / n
        var_r = sum((r - mean_r) ** 2 for r in rates) / n
        if var_l == 0 or var_r == 0:
            return 0.0
        return cov / (var_l * var_r) ** 0.5


def run(
    config: EvalConfig = EvalConfig(),
    pairs: Optional[Sequence[PairResult]] = None,
) -> Fig7Result:
    results = list(pairs) if pairs is not None else run_grid(config).results
    return Fig7Result(pairs=results, fairness_levels=config.fairness_levels)


def render(result: Fig7Result) -> str:
    levels = result.enforced_levels
    headers = ["pair"]
    for level in levels:
        headers += [f"norm tput @F={level:g}", f"forced/kcyc @F={level:g}"]
    rows = []
    for pair_result in result.pairs:
        row = [pair_result.pair.label]
        for level in levels:
            row.append(f"{pair_result.normalized_throughput(level):.3f}")
            row.append(f"{pair_result.runs[level].forced_switches_per_kcycle():.2f}")
        rows.append(row)
    summary_lines = []
    for level in levels:
        summary_lines.append(
            f"F={level:g}: avg degradation {result.average_degradation(level):.1%}, "
            f"avg forced/kcyc {result.average_forced_switch_rate(level):.2f}, "
            f"corr(loss, forced) {result.degradation_correlates_with_forced_switches(level):.2f}"
        )
    chart = bar_chart(
        {
            f"{pair_result.pair.label} @F=1": 1.0 - pair_result.normalized_throughput(1.0)
            for pair_result in result.pairs
        }
    )
    return (
        format_table(headers, rows, title="Figure 7: throughput normalized to F=0")
        + "\n"
        + "\n".join(summary_lines)
        + "\n(paper: avg degradation 2.2% @F=1/4, 3.7% @F=1/2, 7.2% @F=1)"
        + "\n\nper-pair throughput loss at F=1:\n"
        + chart
    )
