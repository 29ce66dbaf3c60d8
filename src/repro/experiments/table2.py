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
from dataclasses import dataclass

from repro.core.controller import FairnessController, FairnessParams
from repro.core.model import SoeModel, ThreadParams
from repro.engine.singlethread import run_single_thread
from repro.engine.segments import SegmentStream
from repro.engine.soe import SoeParams, run_soe
from repro.experiments.common import EvalConfig, format_table
from repro.workloads.synthetic import uniform_stream

__all__ = ["Table2Row", "Table2Result", "run", "render"]

#: Example 2 parameters, straight from the paper.
IPC_NO_MISS = 2.5
IPM = (15_000.0, 1_000.0)
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
        [ThreadParams(IPC_NO_MISS, IPM[0]), ThreadParams(IPC_NO_MISS, IPM[1])],
        miss_lat=MISS_LAT,
        switch_lat=SWITCH_LAT,
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


def _streams(seed_base: int) -> list[SegmentStream]:
    return [
        uniform_stream(IPC_NO_MISS, IPM[0], seed=seed_base + 1),
        uniform_stream(IPC_NO_MISS, IPM[1], seed=seed_base + 2),
    ]


def _simulated_rows(config: EvalConfig) -> list[Table2Row]:
    seed_base = 2 * config.seed
    st = [
        run_single_thread(
            s, miss_lat=MISS_LAT, min_instructions=config.min_instructions
        ).ipc
        for s in _streams(seed_base)
    ]
    rows = []
    params = SoeParams(miss_lat=MISS_LAT, switch_lat=SWITCH_LAT)
    for level in FAIRNESS_LEVELS:
        if level > 0:
            controller = FairnessController(
                2, FairnessParams(fairness_target=level, miss_lat=MISS_LAT)
            )
            quota_source = controller
        else:
            controller = None
            quota_source = None
        result = run_soe(
            _streams(seed_base),
            controller,
            params,
            config.run_limits(),
        )
        quotas = quota_source.quotas if quota_source else [math.inf, math.inf]
        for tid in range(2):
            rows.append(Table2Row(level, tid, st[tid], result.ipcs[tid], quotas[tid]))
    return rows


def run(config: EvalConfig = EvalConfig()) -> Table2Result:
    """Compute Table 2 analytically and by simulation.

    Run lengths and the stream seed come from ``config``; Example 2's
    machine constants stay fixed -- they define the example.
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
