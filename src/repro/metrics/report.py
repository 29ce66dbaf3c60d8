"""Achieved-fairness reporting (Figure 8 support).

Figure 8 (right) averages ``min(F, achieved_fairness)`` across runs:
truncating at the target F removes the bias of runs that are fair even
without enforcement (they would otherwise pull the average towards 1
regardless of the mechanism). No truncation is applied for F = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigurationError
from repro.metrics.summary import mean, stdev

__all__ = ["truncated_fairness", "FairnessSummary", "summarize_achieved_fairness"]


#: Tolerance for float noise in achieved-fairness ratios. Achieved
#: fairness is min/max of measured speedups, so it is <= 1 by
#: construction -- but the division can land a few ulps above 1.0 (or
#: below 0.0); such values are clamped, while anything further out
#: still signals a real computation bug and raises.
_FAIRNESS_NOISE = 1e-6


def truncated_fairness(achieved: float, fairness_target: float) -> float:
    """``min(F, achieved)``, except no truncation when F = 0.

    ``achieved`` values within :data:`_FAIRNESS_NOISE` outside [0, 1]
    are clamped back into range instead of rejected.
    """
    if not 0.0 <= fairness_target <= 1.0:
        raise ConfigurationError("fairness target must be in [0, 1]")
    if not -_FAIRNESS_NOISE <= achieved <= 1.0 + _FAIRNESS_NOISE:
        raise ConfigurationError(f"achieved fairness out of range: {achieved}")
    achieved = min(max(achieved, 0.0), 1.0)
    # repro-lint: disable=RL004 - F=0 is an exact, validated sentinel input
    if fairness_target == 0.0:
        return achieved
    return min(fairness_target, achieved)


@dataclass(frozen=True)
class FairnessSummary:
    """Mean and standard deviation of (truncated) achieved fairness."""

    fairness_target: float
    mean: float
    stdev: float
    count: int


def summarize_achieved_fairness(
    achieved_values: Sequence[float], fairness_target: float
) -> FairnessSummary:
    """Figure 8 (right): aggregate achieved fairness across runs."""
    if not achieved_values:
        raise ConfigurationError("at least one run is required")
    truncated = [truncated_fairness(v, fairness_target) for v in achieved_values]
    return FairnessSummary(
        fairness_target=fairness_target,
        mean=mean(truncated),
        stdev=stdev(truncated),
        count=len(truncated),
    )
