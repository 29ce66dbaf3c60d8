"""Cross-policy fairness/throughput frontier (policy-zoo experiment).

The paper's evaluation compares its mechanism against an unenforced
baseline and a time-sharing strawman. With the policy zoo
(:mod:`repro.core.policies`) every registered switch policy runs on the
*same* supervised grid, so their fairness/throughput trade-offs become
directly comparable: for each policy this experiment runs every
benchmark pair at the unenforced baseline plus the configured
enforcement level, and aggregates achieved fairness (Eq. 4 against the
measured single-thread IPCs) and throughput normalized to each pair's
own baseline.

Results are bit-identical across job counts and cold/resumed runs: each per-policy grid goes through
:func:`repro.experiments.runner.run_grid` unchanged, with the policy
dimension carried by :class:`~repro.experiments.common.EvalConfig` (and
therefore by cache keys and checkpoint fingerprints). When a checkpoint
path is configured, each policy journals to its own derived path
(``<checkpoint>.<policy>``), since per-policy grids have distinct
fingerprints.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.core.policies import get_policy, policy_names
from repro.errors import ConfigurationError
from repro.experiments.common import EvalConfig, format_table
from repro.workloads.pairs import BenchmarkPair

__all__ = ["PolicyFrontierPoint", "FrontierRow", "FrontierResult", "run", "render"]


@dataclass(frozen=True)
class PolicyFrontierPoint:
    """One (policy, pair) cell of the frontier."""

    policy: str
    level: float
    pair_label: str
    #: Eq. 4 achieved fairness at the enforcement level
    fairness: float
    #: total IPC at the enforcement level / the pair's F=0 total IPC
    normalized_throughput: float
    total_ipc: float
    forced_switches_per_kcycle: float


@dataclass(frozen=True)
class FrontierRow:
    """One policy's aggregate frontier position across all pairs."""

    policy: str
    level: float
    mean_fairness: float
    min_fairness: float
    mean_normalized_throughput: float
    min_normalized_throughput: float
    points: tuple[PolicyFrontierPoint, ...]


@dataclass(frozen=True)
class FrontierResult:
    """The full cross-policy frontier for one workload-mix grid."""

    level: float
    policies: tuple[str, ...]
    pair_labels: tuple[str, ...]
    rows: tuple[FrontierRow, ...]


def _frontier_config(config: EvalConfig, policy: str, level: float) -> EvalConfig:
    """The per-policy grid config: baseline + one enforcement level.

    Parameter overrides in ``config.policy_params`` belong to
    ``config.policy``'s schema, so they only carry over to that policy.
    """
    params = config.policy_params if policy == config.policy else ()
    return replace(
        config,
        policy=policy,
        policy_params=params,
        fairness_levels=(0.0, level),
    )


def run(
    config: EvalConfig = EvalConfig(),
    pairs: Optional[Sequence[BenchmarkPair]] = None,
    policies: Optional[Sequence[str]] = None,
) -> FrontierResult:
    """Sweep every registered policy over the shared evaluation grid.

    ``policies`` restricts the sweep (default: every registered policy,
    in registration order). The enforcement level is the highest
    configured fairness level.
    """
    from repro.experiments import runner

    level = max(config.fairness_levels)
    if level <= 0.0:
        raise ConfigurationError(
            "the frontier needs a non-zero fairness level to enforce at "
            f"(fairness_levels: {config.fairness_levels})"
        )
    names = tuple(policies) if policies is not None else policy_names()
    if not names:
        raise ConfigurationError("at least one policy is required")
    for name in names:
        get_policy(name)  # raises for unknown names, before any grid runs

    settings = runner.current_settings()
    rows = []
    pair_labels: tuple[str, ...] = ()
    for name in names:
        policy_settings = settings
        if settings.checkpoint is not None:
            # Per-policy grids have distinct fingerprints, so each
            # journals to (and resumes from) its own derived path.
            policy_settings = replace(
                settings,
                checkpoint=settings.checkpoint.with_name(
                    f"{settings.checkpoint.name}.{name}"
                ),
            )
        grid = runner.run_grid(
            _frontier_config(config, name, level),
            pairs=pairs,
            settings=policy_settings,
        )
        points = tuple(
            PolicyFrontierPoint(
                policy=name,
                level=level,
                pair_label=result.pair.label,
                fairness=result.achieved_fairness(level),
                normalized_throughput=result.normalized_throughput(level),
                total_ipc=result.runs[level].total_ipc,
                forced_switches_per_kcycle=(
                    result.runs[level].forced_switches_per_kcycle()
                ),
            )
            for result in grid.results
        )
        pair_labels = tuple(point.pair_label for point in points)
        rows.append(
            FrontierRow(
                policy=name,
                level=level,
                mean_fairness=statistics.fmean(p.fairness for p in points),
                min_fairness=min(p.fairness for p in points),
                mean_normalized_throughput=statistics.fmean(
                    p.normalized_throughput for p in points
                ),
                min_normalized_throughput=min(
                    p.normalized_throughput for p in points
                ),
                points=points,
            )
        )
    return FrontierResult(
        level=level,
        policies=names,
        pair_labels=pair_labels,
        rows=tuple(rows),
    )


def render(result: FrontierResult) -> str:
    headers = [
        "policy",
        "mean fairness",
        "min fairness",
        "mean norm tput",
        "min norm tput",
        "forced sw/kcyc",
    ]
    rows = []
    for row in result.rows:
        forced = statistics.fmean(
            p.forced_switches_per_kcycle for p in row.points
        )
        rows.append(
            [
                row.policy,
                f"{row.mean_fairness:.3f}",
                f"{row.min_fairness:.3f}",
                f"{row.mean_normalized_throughput:.3f}",
                f"{row.min_normalized_throughput:.3f}",
                f"{forced:.2f}",
            ]
        )
    table = format_table(
        headers,
        rows,
        title=(
            f"Cross-policy fairness/throughput frontier "
            f"(enforcement level F={result.level:g}, "
            f"{len(result.pair_labels)} pairs)"
        ),
    )
    text = (
        table
        + "\n\nthroughput is normalized to each pair's own unenforced "
        "(F=0) baseline; fairness is Eq. 4 against measured "
        "single-thread IPCs."
    )
    if "icount" in result.policies:
        text += (
            "\nNote: icount only reorders dispatch, which with two "
            "threads almost always coincides with round robin -- its "
            "row matching 'none' is the expected finding, not a bug."
        )
    return text
