"""Thread-count scaling: SOE throughput and fairness beyond two threads.

The related work the paper builds on (Eickemeyer et al.) found that SOE
reaches its maximum throughput at about three threads: with enough
threads, every miss's latency is fully hidden by the other threads'
execution, and more contexts only add switch overhead. The fairness
mechanism itself is N-ary (Eqs. 4 and 9 quantify over all thread
pairs), so this experiment also checks that enforcement holds as the
thread count grows.

Workload: memory-bound threads (short CPM relative to the miss
latency), the regime where extra threads pay off, plus one compute
thread to make the fairness problem appear.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.controller import FairnessController
from repro.engine.segments import SegmentStream
from repro.engine.soe import run_soe
from repro.experiments.common import EvalConfig, format_table, synthetic_ipc_st
from repro.workloads.synthetic import uniform_stream

__all__ = ["ThreadCountRow", "ThreadCountResult", "run", "render"]

#: Memory-bound behaviour: CPM ~150 cycles vs 300-cycle misses, so a
#: single partner thread cannot hide a whole miss and a third thread
#: still adds coverage.
MEMORY_IPC = 2.0
MEMORY_IPM = 300.0
#: The compute thread that starves the others without enforcement.
COMPUTE_IPC = 2.6
COMPUTE_IPM = 30_000.0
#: The swept thread counts.
THREAD_COUNTS = (2, 3, 4, 5, 6)
#: The fairness level the enforced runs target.
FAIRNESS_TARGET = 0.5
#: Relative throughput shortfall from the peak that still counts as
#: saturated.
SATURATION_TOLERANCE = 0.05


@dataclass(frozen=True)
class ThreadCountRow:
    num_threads: int
    total_ipc: float
    idle_fraction: float
    fairness_unenforced: float
    fairness_enforced: float


@dataclass(frozen=True)
class ThreadCountResult:
    fairness_target: float
    rows: list[ThreadCountRow]

    def throughput_series(self) -> list[float]:
        return [row.total_ipc for row in self.rows]

    def saturation_point(self) -> int:
        """Smallest thread count within :data:`SATURATION_TOLERANCE` of
        the maximum throughput (Eickemeyer's ~3 threads)."""
        peak = max(self.throughput_series())
        for row in self.rows:
            if row.total_ipc >= peak * (1.0 - SATURATION_TOLERANCE):
                return row.num_threads
        return self.rows[-1].num_threads  # pragma: no cover


def _memory_streams(num_threads: int, seed_base: int) -> list[SegmentStream]:
    """Pure memory-bound mix: the regime where thread count pays off."""
    return [
        uniform_stream(MEMORY_IPC, MEMORY_IPM, ipm_cv=0.4,
                       seed=seed_base + 50 + index, name=f"memory{index}")
        for index in range(num_threads)
    ]


def _mixed_streams(num_threads: int, seed_base: int) -> list[SegmentStream]:
    """One compute thread + N-1 memory threads: the fairness stressor."""
    streams = [
        uniform_stream(COMPUTE_IPC, COMPUTE_IPM, ipm_cv=0.5,
                       seed=seed_base + 41, name="compute"),
    ]
    streams.extend(_memory_streams(num_threads - 1, seed_base))
    return streams


def run(config: EvalConfig = EvalConfig()) -> ThreadCountResult:
    """Sweep the thread count; the machine, the mechanism, run lengths
    and the stream seed come from ``config``."""
    seed_base = 2 * config.seed
    params = config.soe_params()
    limits = config.run_limits()
    rows = []
    for count in THREAD_COUNTS:
        # Throughput scaling on the homogeneous memory-bound mix.
        throughput_run = run_soe(
            _memory_streams(count, seed_base), None, params, limits
        )

        # Fairness behaviour on the heterogeneous mix.
        ipc_st = synthetic_ipc_st(_mixed_streams(count, seed_base), config)
        unenforced = run_soe(
            _mixed_streams(count, seed_base), None, params, limits
        )
        controller = FairnessController(
            count, config.fairness_params(FAIRNESS_TARGET)
        )
        enforced = run_soe(
            _mixed_streams(count, seed_base), controller, params, limits
        )
        rows.append(
            ThreadCountRow(
                num_threads=count,
                total_ipc=throughput_run.total_ipc,
                idle_fraction=throughput_run.idle_cycles / throughput_run.cycles,
                fairness_unenforced=unenforced.achieved_fairness(ipc_st),
                fairness_enforced=enforced.achieved_fairness(ipc_st),
            )
        )
    return ThreadCountResult(fairness_target=FAIRNESS_TARGET, rows=rows)


def render(result: ThreadCountResult) -> str:
    rows = [
        [
            row.num_threads,
            f"{row.total_ipc:.3f}",
            f"{row.idle_fraction:.1%}",
            f"{row.fairness_unenforced:.3f}",
            f"{row.fairness_enforced:.3f}",
        ]
        for row in result.rows
    ]
    from repro.metrics.ascii_chart import line_chart

    chart = line_chart(
        {"IPC_SOE": result.throughput_series()},
        x_values=[float(row.num_threads) for row in result.rows],
        y_label="memory-bound throughput (x axis: thread count)",
        height=10,
        width=40,
    )
    return (
        format_table(
            ["threads", "IPC_SOE (F=0)", "idle", "fairness (F=0)",
             f"fairness (F={result.fairness_target:g})"],
            rows,
            title=(
                "Thread-count scaling (throughput: N memory-bound threads; "
                "fairness: 1 compute + N-1 memory)"
            ),
        )
        + f"\nthroughput saturates at {result.saturation_point()} threads "
        + "(related work: ~3)\n\n"
        + chart
    )
