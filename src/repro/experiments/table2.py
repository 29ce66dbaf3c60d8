"""Table 2 / Example 2: two-thread SOE with and without enforcement.

The paper's running example: both threads retire 2.5 instructions per
cycle between misses; thread 1 misses every 15,000 instructions, thread
2 every 1,000; memory latency 300 cycles, switch latency 25. The table
reports each thread's single-thread IPC, its SOE IPC and speedup at
F = 0, 1/2 and 1, the enforced quotas, and the resulting fairness.

This module reproduces the table twice -- from the closed-form model
(Section 2) and from the segment engine with the full runtime mechanism
(counters, Delta sampling, deficit counting) -- so the two can be
compared directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.core.controller import FairnessController
from repro.core.model import SoeModel
from repro.engine.soe import run_soe
from repro.experiments.common import (
    EXAMPLE2_THREADS,
    EvalConfig,
    example2_streams,
    format_table,
    synthetic_ipc_st,
)

__all__ = ["Table2Row", "Table2Result", "run", "render"]

#: Example 2's machine latencies, straight from the paper.
MISS_LAT = 300.0
SWITCH_LAT = 25.0
FAIRNESS_LEVELS = (0.0, 0.5, 1.0)


@dataclass(frozen=True)
class Table2Row:
    """One (fairness level, thread) cell group of the table."""

    fairness_target: float
    thread: int
    ipc_st: float
    ipc_soe: float
    quota: float

    @property
    def speedup(self) -> float:
        return self.ipc_soe / self.ipc_st

    @property
    def slowdown_factor(self) -> float:
        """The paper quotes IPC drops as factors (1.02x, 9.2x...)."""
        return self.ipc_st / self.ipc_soe if self.ipc_soe > 0 else math.inf


@dataclass(frozen=True)
class Table2Result:
    analytical: list[Table2Row]
    simulated: list[Table2Row]

    def fairness(self, rows: list[Table2Row], level: float) -> float:
        # repro-lint: disable=RL004 - levels are identical config constants
        speedups = [r.speedup for r in rows if r.fairness_target == level]
        return min(speedups) / max(speedups)


def _model_rows() -> list[Table2Row]:
    model = SoeModel(
        list(EXAMPLE2_THREADS), miss_lat=MISS_LAT, switch_lat=SWITCH_LAT
    )
    st = model.single_thread_ipcs()
    rows = []
    for level in FAIRNESS_LEVELS:
        soe = model.soe_ipcs(level)
        quotas = model.quotas(level)
        for tid in range(2):
            rows.append(
                Table2Row(level, tid, st[tid], soe[tid], quotas[tid])
            )
    return rows


def _simulated_rows(config: EvalConfig) -> list[Table2Row]:
    example = replace(config, miss_lat=MISS_LAT, switch_lat=SWITCH_LAT)
    st = synthetic_ipc_st(example2_streams(config.seed), example)
    rows = []
    for level in FAIRNESS_LEVELS:
        controller = (
            FairnessController(2, example.fairness_params(level))
            if level > 0 else None
        )
        result = run_soe(
            example2_streams(config.seed),
            controller,
            example.soe_params(),
            example.run_limits(),
        )
        quotas = controller.quotas if controller else [math.inf, math.inf]
        for tid in range(2):
            rows.append(Table2Row(level, tid, st[tid], result.ipcs[tid], quotas[tid]))
    return rows


def run(config: EvalConfig = EvalConfig()) -> Table2Result:
    """Compute Table 2 analytically and by simulation.

    The engine runs read everything from ``config`` -- run lengths, the
    stream seed, the maximum cycles quota and the sample period -- except
    Example 2's 300/25-cycle miss and switch latencies, which define the
    example and stay fixed.
    """
    return Table2Result(
        analytical=_model_rows(),
        simulated=_simulated_rows(config),
    )


def render(result: Table2Result) -> str:
    """Human-readable rendition of both tables."""
    sections = []
    for label, rows in (("analytical model", result.analytical),
                        ("segment engine", result.simulated)):
        table_rows = []
        for row in rows:
            quota = "-" if math.isinf(row.quota) else f"{row.quota:,.0f}"
            table_rows.append(
                [
                    f"{row.fairness_target:g}",
                    row.thread + 1,
                    f"{row.ipc_st:.3f}",
                    f"{row.ipc_soe:.3f}",
                    f"{row.speedup:.3f}",
                    f"{row.slowdown_factor:.2f}x",
                    quota,
                ]
            )
        fair = "  ".join(
            f"F={lvl:g}: {result.fairness(rows, lvl):.3f}" for lvl in FAIRNESS_LEVELS
        )
        sections.append(
            format_table(
                ["F", "thread", "IPC_ST", "IPC_SOE", "speedup", "slowdown", "IPSw"],
                table_rows,
                title=f"Table 2 ({label}) -- achieved fairness: {fair}",
            )
        )
    return "\n\n".join(sections)
