"""Prioritized (weighted) fairness enforcement.

A natural generalization the Eq. 7 derivation supports directly: scale
each thread's quota by a priority weight, and the mechanism drives the
threads' speedups towards the *weight ratio* instead of equality. A
weight-2 thread is entitled to twice the slowdown-relative share of a
weight-1 thread; ``weights=None`` recovers the paper's mechanism.

The experiment runs Example 2's thread pair with weight ratios 1:1,
2:1 and 4:1 at F = 1 and reports the achieved speedup ratios against
the targets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.controller import FairnessController
from repro.core.fairness import weighted_fairness
from repro.engine.soe import run_soe
from repro.experiments.common import (
    EvalConfig,
    example2_streams,
    format_table,
    synthetic_ipc_st,
)

__all__ = ["WeightedRow", "WeightedResult", "run", "render"]

#: The swept priority weights ``(w1, w2)``.
WEIGHT_RATIOS = ((1.0, 1.0), (2.0, 1.0), (4.0, 1.0), (1.0, 2.0))

#: The fairness level every weighting enforces.
FAIRNESS_TARGET = 1.0


@dataclass(frozen=True)
class WeightedRow:
    weights: tuple[float, float]
    speedups: tuple[float, float]
    total_ipc: float

    @property
    def achieved_ratio(self) -> float:
        """speedup(t1) / speedup(t2); the target is w1 / w2."""
        return self.speedups[0] / self.speedups[1]

    @property
    def target_ratio(self) -> float:
        return self.weights[0] / self.weights[1]

    @property
    def weighted_fairness(self) -> float:
        return weighted_fairness(self.speedups, self.weights)


@dataclass(frozen=True)
class WeightedResult:
    fairness_target: float
    rows: list[WeightedRow]


def run(config: EvalConfig = EvalConfig()) -> WeightedResult:
    """Run Example 2's pair once per weight ratio; the machine, the
    mechanism (its sample period and assumed latency), run lengths and
    the stream seed come from ``config``, the weights are layered on."""
    params = config.soe_params()
    ipc_st = synthetic_ipc_st(example2_streams(config.seed), config)
    limits = config.run_limits()
    rows = []
    for weights in WEIGHT_RATIOS:
        controller = FairnessController(
            2, replace(config.fairness_params(FAIRNESS_TARGET), weights=weights)
        )
        result = run_soe(example2_streams(config.seed), controller, params, limits)
        rows.append(
            WeightedRow(
                weights=weights,
                speedups=tuple(result.speedups(ipc_st)),
                total_ipc=result.total_ipc,
            )
        )
    return WeightedResult(fairness_target=FAIRNESS_TARGET, rows=rows)


def render(result: WeightedResult) -> str:
    rows = [
        [
            f"{row.weights[0]:g}:{row.weights[1]:g}",
            f"{row.speedups[0]:.3f}/{row.speedups[1]:.3f}",
            f"{row.achieved_ratio:.2f}",
            f"{row.target_ratio:.2f}",
            f"{row.weighted_fairness:.3f}",
            f"{row.total_ipc:.3f}",
        ]
        for row in result.rows
    ]
    return format_table(
        ["weights", "speedups", "achieved ratio", "target ratio",
         "weighted fairness", "IPC_SOE"],
        rows,
        title=(
            f"Prioritized fairness on Example 2's threads at "
            f"F = {result.fairness_target:g}"
        ),
    )
