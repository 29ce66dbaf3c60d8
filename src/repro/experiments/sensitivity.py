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

from dataclasses import dataclass, replace
from typing import Optional

from repro.core.controller import FairnessController
from repro.core.model import SoeModel
from repro.engine.soe import run_soe
from repro.experiments.common import (
    EXAMPLE2_THREADS,
    EvalConfig,
    example2_streams,
    format_table,
)

__all__ = ["SensitivityRow", "SensitivityResult", "run", "render"]

#: The swept memory latencies, in cycles.
MISS_LATENCIES = (75.0, 150.0, 300.0, 600.0, 1_200.0, 2_000.0)

#: The swept switch latencies, in cycles.
SWITCH_LATENCIES = (5.0, 10.0, 25.0, 50.0, 100.0)

#: The points the engine spot-checks per swept parameter (the paper's
#: machine: 300-cycle memory, 25-cycle switches).
SPOT_CHECKS = {"miss_lat": (300.0,), "switch_lat": (25.0,)}


@dataclass(frozen=True)
class SensitivityRow:
    parameter: str
    value: float
    unenforced_fairness: float
    f1_throughput_cost: float
    #: engine-measured cost for the spot-checked points (None elsewhere)
    measured_cost: Optional[float] = None


@dataclass(frozen=True)
class SensitivityResult:
    rows: list[SensitivityRow]

    def series(self, parameter: str) -> list[SensitivityRow]:
        return [row for row in self.rows if row.parameter == parameter]


def _measure_cost(config: EvalConfig) -> float:
    """Engine-measured F = 1 throughput cost of Example 2's pair on
    ``config``'s machine.

    The config carries every input (machine, mechanism, run lengths,
    stream seed).
    """
    params = config.soe_params()
    limits = config.run_limits()
    base = run_soe(example2_streams(config.seed), None, params, limits)
    controller = FairnessController(2, config.fairness_params(1.0))
    enforced = run_soe(example2_streams(config.seed), controller, params, limits)
    return 1.0 - enforced.total_ipc / base.total_ipc


def run(config: EvalConfig = EvalConfig()) -> SensitivityResult:
    """Sweep each latency over ``config``'s machine, the other latency,
    the quota, the mechanism, run lengths and the stream seed staying as
    configured; the engine also measures the :data:`SPOT_CHECKS`."""
    sweeps = [
        ("miss_lat", lat, replace(config, miss_lat=lat)) for lat in MISS_LATENCIES
    ] + [
        ("switch_lat", lat, replace(config, switch_lat=lat))
        for lat in SWITCH_LATENCIES
    ]
    measured = {
        (parameter, value): _measure_cost(machine)
        for parameter, value, machine in sweeps
        if value in SPOT_CHECKS[parameter]
    }

    rows = []
    for parameter, value, machine in sweeps:
        model = SoeModel(
            list(EXAMPLE2_THREADS),
            miss_lat=machine.miss_lat,
            switch_lat=machine.switch_lat,
        )
        rows.append(
            SensitivityRow(
                parameter=parameter,
                value=value,
                unenforced_fairness=model.fairness(0.0),
                f1_throughput_cost=-model.throughput_change(1.0),
                measured_cost=measured.get((parameter, value)),
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
