"""Seed stability of the headline results.

The workloads are synthetic, so a fair question is whether the
reproduced aggregates are properties of the *suite* or accidents of one
random seed. This experiment reruns the full 16-pair evaluation grid
under several seeds and reports the spread of every headline number:
average SOE speedup per fairness level, average throughput degradation,
the unfair-run fraction, and the truncated achieved-fairness means.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

from repro.experiments.common import EvalConfig, format_table
from repro.experiments.fig6 import Fig6Result
from repro.experiments.fig7 import Fig7Result
from repro.experiments.fig8 import Fig8Result
from repro.experiments.runner import run_grid
from repro.metrics.summary import mean, stdev

__all__ = ["SeedOutcome", "StabilityResult", "run", "render"]


@dataclass(frozen=True)
class SeedOutcome:
    """Headline aggregates for one seed."""

    seed: int
    speedup_by_level: dict
    degradation_by_level: dict
    unfair_fraction: float
    truncated_mean_by_level: dict


@dataclass(frozen=True)
class StabilityResult:
    outcomes: list[SeedOutcome]
    fairness_levels: tuple[float, ...]

    def spread(self, extract: Callable[[SeedOutcome], float]) -> tuple[float, float]:
        values = [extract(outcome) for outcome in self.outcomes]
        return mean(values), stdev(values)

    def speedup_spread(self, level: float) -> tuple[float, float]:
        return self.spread(lambda o: o.speedup_by_level[level])

    def degradation_spread(self, level: float) -> tuple[float, float]:
        return self.spread(lambda o: o.degradation_by_level[level])

    def unfair_fraction_spread(self) -> tuple[float, float]:
        return self.spread(lambda o: o.unfair_fraction)

    def truncated_mean_spread(self, level: float) -> tuple[float, float]:
        return self.spread(lambda o: o.truncated_mean_by_level[level])


def run(
    seeds: Sequence[int] = (0, 1, 2),
    config: EvalConfig = EvalConfig(),
) -> StabilityResult:
    """Rerun the grid under each seed.

    Per-seed grids execute through :mod:`repro.experiments.runner`, so
    the ambient ``--jobs``/``--cache-dir`` settings apply: each seed's
    16 pairs fan out across the process pool, and a repeated sweep
    replays cached pair results (the seed is part of the cache key).
    """
    outcomes = []
    for seed in seeds:
        seeded = replace(config, seed=seed)
        grid = run_grid(seeded).results
        fig6 = Fig6Result(pairs=grid, fairness_levels=seeded.fairness_levels)
        fig7 = Fig7Result(pairs=grid, fairness_levels=seeded.fairness_levels)
        ordered = sorted(grid, key=lambda p: p.achieved_fairness(0.0))
        fig8 = Fig8Result(pairs=ordered, fairness_levels=seeded.fairness_levels)
        outcomes.append(
            SeedOutcome(
                seed=seed,
                speedup_by_level={
                    level: fig6.average_speedup(level)
                    for level in seeded.fairness_levels
                },
                degradation_by_level={
                    level: fig7.average_degradation(level)
                    for level in fig7.enforced_levels
                },
                unfair_fraction=fig8.unfair_run_fraction(0.1),
                truncated_mean_by_level={
                    level: fig8.summary(level).mean
                    for level in seeded.fairness_levels
                    if level > 0
                },
            )
        )
    return StabilityResult(
        outcomes=outcomes, fairness_levels=config.fairness_levels
    )


def render(result: StabilityResult) -> str:
    levels = sorted(result.fairness_levels)
    rows = []
    for level in levels:
        speedup_mean, speedup_std = result.speedup_spread(level)
        row = [f"F={level:g}", f"{speedup_mean:+.1%} ± {speedup_std:.1%}"]
        if level > 0:
            deg_mean, deg_std = result.degradation_spread(level)
            trunc_mean, trunc_std = result.truncated_mean_spread(level)
            row += [
                f"{deg_mean:.1%} ± {deg_std:.1%}",
                f"{trunc_mean:.3f} ± {trunc_std:.3f}",
            ]
        else:
            row += ["-", "-"]
        rows.append(row)
    unfair_mean, unfair_std = result.unfair_fraction_spread()
    return (
        format_table(
            ["level", "avg speedup over ST", "avg degradation",
             "truncated fairness"],
            rows,
            title=(
                f"Seed stability over {len(result.outcomes)} seeds "
                f"(16-pair grid per seed)"
            ),
        )
        + f"\nunfair-run fraction: {unfair_mean:.0%} ± {unfair_std:.0%} "
        + "(paper: over a third)"
    )
