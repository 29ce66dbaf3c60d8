"""Machine-parameter sensitivity of the fairness problem and its cost.

Two what-if sweeps over the machine constants, run on the analytical
model and spot-checked against the segment engine:

* **Memory latency** (the paper's 300 cycles = 75 ns at 4 GHz): Eq. 5
  says unenforced fairness is ``min (CPM_j + L)/(CPM_k + L)`` -- as
  memory gets *slower* relative to the cores (larger L), unfairness
  softens; as cores outpace memory further (here: the 2000-cycle
  point), starvation deepens. The cost of enforcement moves the same
  way.
* **Switch latency**: forced switches cost ``S`` cycles each, so the
  F = 1 throughput penalty scales almost linearly with S -- quantifying
  the paper's premise that SOE (and its fairness control) depends on
  cheap switches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.model import SoeModel, ThreadParams
from repro.engine.soe import RunLimits, SoeParams, run_soe
from repro.core.controller import FairnessController, FairnessParams
from repro.experiments.common import EvalConfig, format_table
from repro.workloads.synthetic import uniform_stream

__all__ = ["SensitivityRow", "SensitivityResult", "run", "render"]

#: Example 2's thread pair, the reference workload throughout.
THREADS = (ThreadParams(2.5, 15_000.0), ThreadParams(2.5, 1_000.0))


@dataclass(frozen=True)
class SensitivityRow:
    parameter: str
    value: float
    unenforced_fairness: float
    f1_throughput_cost: float
    #: engine-measured cost for the spot-checked points (None elsewhere)
    measured_cost: float = None


@dataclass(frozen=True)
class SensitivityResult:
    rows: list[SensitivityRow]

    def series(self, parameter: str) -> list[SensitivityRow]:
        return [row for row in self.rows if row.parameter == parameter]


def _model(miss_lat: float, switch_lat: float) -> SoeModel:
    return SoeModel(list(THREADS), miss_lat=miss_lat, switch_lat=switch_lat)


def _measure_cost(
    spec: tuple[float, float, float, float, int],
) -> float:
    """Engine-measured F = 1 throughput cost for one latency point.

    The spec carries every input (latencies, run lengths, stream seed
    base), so the process pool can replay it deterministically.
    """
    miss_lat, switch_lat, min_instructions, warmup, seed_base = spec
    params = SoeParams(miss_lat=miss_lat, switch_lat=switch_lat)
    streams = lambda: [
        uniform_stream(2.5, 15_000, seed=seed_base + 1),
        uniform_stream(2.5, 1_000, seed=seed_base + 2),
    ]
    limits = RunLimits(
        min_instructions=min_instructions, warmup_instructions=warmup
    )
    base = run_soe(streams(), None, params, limits)
    controller = FairnessController(
        2, FairnessParams(fairness_target=1.0, miss_lat=miss_lat)
    )
    enforced = run_soe(streams(), controller, params, limits)
    return 1.0 - enforced.total_ipc / base.total_ipc


def run(
    miss_latencies: Sequence[float] = (75.0, 150.0, 300.0, 600.0, 1_200.0, 2_000.0),
    switch_latencies: Sequence[float] = (5.0, 10.0, 25.0, 50.0, 100.0),
    spot_check: Sequence[float] = (300.0,),
    config: EvalConfig = EvalConfig(),
) -> SensitivityResult:
    from repro.experiments.runner import parallel_map

    min_instructions = config.min_instructions
    warmup = config.warmup_instructions
    seed_base = 2 * config.seed

    # The engine spot-checks are the expensive part; fan them out and
    # join them back by latency point.
    miss_points = [lat for lat in miss_latencies if lat in spot_check]
    switch_points = [lat for lat in switch_latencies if lat in (25.0,)]
    specs = [
        (lat, 25.0, min_instructions, warmup, seed_base) for lat in miss_points
    ] + [
        (300.0, lat, min_instructions, warmup, seed_base)
        for lat in switch_points
    ]
    costs = parallel_map(_measure_cost, specs)
    measured = dict(zip([("miss_lat", lat) for lat in miss_points]
                        + [("switch_lat", lat) for lat in switch_points], costs))

    rows = []
    for latency in miss_latencies:
        model = _model(latency, 25.0)
        rows.append(
            SensitivityRow(
                parameter="miss_lat",
                value=latency,
                unenforced_fairness=model.fairness(0.0),
                f1_throughput_cost=-model.throughput_change(1.0),
                measured_cost=measured.get(("miss_lat", latency)),
            )
        )
    for latency in switch_latencies:
        model = _model(300.0, latency)
        rows.append(
            SensitivityRow(
                parameter="switch_lat",
                value=latency,
                unenforced_fairness=model.fairness(0.0),
                f1_throughput_cost=-model.throughput_change(1.0),
                measured_cost=measured.get(("switch_lat", latency)),
            )
        )
    return SensitivityResult(rows=rows)


def render(result: SensitivityResult) -> str:
    table_rows = []
    for row in result.rows:
        table_rows.append(
            [
                row.parameter,
                f"{row.value:g}",
                f"{row.unenforced_fairness:.3f}",
                f"{row.f1_throughput_cost:.1%}",
                "-" if row.measured_cost is None else f"{row.measured_cost:.1%}",
            ]
        )
    return format_table(
        ["parameter", "cycles", "fairness (F=0)", "F=1 cost (model)",
         "F=1 cost (engine)"],
        table_rows,
        title="Machine-parameter sensitivity (Example 2's thread pair)",
    )
