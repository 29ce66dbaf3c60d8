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

from dataclasses import dataclass
from typing import Sequence

from repro.core.controller import FairnessController, FairnessParams
from repro.core.fairness import weighted_fairness
from repro.engine.singlethread import run_single_thread
from repro.engine.segments import SegmentStream
from repro.engine.soe import SoeParams, run_soe
from repro.experiments.common import EvalConfig, format_table
from repro.workloads.synthetic import uniform_stream

__all__ = ["WeightedRow", "WeightedResult", "run", "render"]

IPC_NO_MISS = 2.5
IPM = (15_000.0, 1_000.0)


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


def _streams(seed_base: int) -> list[SegmentStream]:
    return [
        uniform_stream(IPC_NO_MISS, IPM[0], seed=seed_base + 1),
        uniform_stream(IPC_NO_MISS, IPM[1], seed=seed_base + 2),
    ]


def run(
    weight_ratios: Sequence[tuple[float, float]] = ((1.0, 1.0), (2.0, 1.0), (4.0, 1.0), (1.0, 2.0)),
    fairness_target: float = 1.0,
    config: EvalConfig = EvalConfig(),
) -> WeightedResult:
    seed_base = 2 * config.seed
    params = SoeParams()
    ipc_st = [
        run_single_thread(
            s, params.miss_lat, min_instructions=config.min_instructions
        ).ipc
        for s in _streams(seed_base)
    ]
    limits = config.run_limits()
    rows = []
    for weights in weight_ratios:
        controller = FairnessController(
            2,
            FairnessParams(fairness_target=fairness_target, weights=tuple(weights)),
        )
        result = run_soe(_streams(seed_base), controller, params, limits)
        rows.append(
            WeightedRow(
                weights=tuple(weights),
                speedups=tuple(result.speedups(ipc_st)),
                total_ipc=result.total_ipc,
            )
        )
    return WeightedResult(fairness_target=fairness_target, rows=rows)


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
