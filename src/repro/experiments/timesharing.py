"""Section 6 discussion: why simple time sharing is not enough.

The paper's argument, quantified on Example 2's threads: forcing a
switch every ~400 cycles divides *time* almost equally, but equal time
is not equal *slowdown* -- the achieved fairness is only ~0.6, while
the proposed mechanism reaches 1.0. Meanwhile very small time quotas
do push fairness up, but each forced switch costs ``switch_lat`` cycles
of dead time, so throughput collapses. This experiment sweeps the time
quota and compares against the fairness-enforced run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.controller import FairnessController
from repro.core.policies import PolicyConfig
from repro.engine.soe import RunLimits, run_soe
from repro.experiments.common import (
    EvalConfig,
    example2_streams,
    format_table,
    synthetic_ipc_st,
)

__all__ = ["TimeSharingPoint", "TimeSharingResult", "run", "render"]

#: The swept time quotas, in cycles per turn.
QUOTAS = (100.0, 200.0, 400.0, 1_000.0, 4_000.0, 16_000.0)


@dataclass(frozen=True)
class TimeSharingPoint:
    cycle_quota: float
    total_ipc: float
    fairness: float
    time_share: tuple[float, float]


@dataclass(frozen=True)
class TimeSharingResult:
    points: list[TimeSharingPoint]
    enforced_ipc: float
    enforced_fairness: float

    def fairness_costs_throughput(self) -> bool:
        """True when the fairest time-sharing point is also (nearly) the
        slowest -- the paper's high-fairness-needs-tiny-quota argument."""
        fairest = max(self.points, key=lambda p: p.fairness)
        fastest = max(self.points, key=lambda p: p.total_ipc)
        return fairest.total_ipc <= fastest.total_ipc


def run(config: EvalConfig = EvalConfig()) -> TimeSharingResult:
    """Sweep the time quota on Example 2's threads, then run the
    mechanism at F = 1; run lengths, machine parameters and the stream
    seed come from ``config``. The quota sweep measures from the first
    instruction (``config.min_instructions``, no warmup)."""
    params = config.soe_params()
    ipc_st = synthetic_ipc_st(example2_streams(config.seed), config)
    points = []
    for quota in QUOTAS:
        result = run_soe(
            example2_streams(config.seed),
            PolicyConfig("rr-timeshare", params=(("cycle_quota", quota),)).make(2),
            params,
            RunLimits(min_instructions=config.min_instructions),
        )
        run_cycles = tuple(t.run_cycles for t in result.threads)
        total_run = sum(run_cycles)
        points.append(
            TimeSharingPoint(
                cycle_quota=quota,
                total_ipc=result.total_ipc,
                fairness=result.achieved_fairness(ipc_st),
                time_share=tuple(c / total_run for c in run_cycles),
            )
        )
    controller = FairnessController(2, config.fairness_params(1.0))
    enforced = run_soe(
        example2_streams(config.seed),
        controller,
        params,
        config.run_limits(),
    )
    return TimeSharingResult(
        points=points,
        enforced_ipc=enforced.total_ipc,
        enforced_fairness=enforced.achieved_fairness(ipc_st),
    )


def render(result: TimeSharingResult) -> str:
    rows = [
        [
            f"{p.cycle_quota:,.0f}",
            f"{p.total_ipc:.3f}",
            f"{p.fairness:.3f}",
            f"{p.time_share[0]:.0%}/{p.time_share[1]:.0%}",
        ]
        for p in result.points
    ]
    rows.append(
        ["(enforced F=1)", f"{result.enforced_ipc:.3f}",
         f"{result.enforced_fairness:.3f}", "-"]
    )
    return (
        format_table(
            ["cycle quota", "IPC_SOE", "fairness", "time split"],
            rows,
            title="Section 6: time sharing vs fairness enforcement (Example 2)",
        )
        + "\n(paper: ~400-cycle time sharing gives fairness ~0.6; "
        + "the mechanism gives 1.0)"
    )
