"""Ablations of the mechanism's design parameters.

The paper fixes several knobs with one-line justifications; these
ablations quantify them on the gcc:eon pair (the pair that needs active
enforcement):

* ``Delta`` (sampling period, Section 3.1): too small -> noisy
  estimates; too large -> phases tracked poorly.
* maximum cycles quota (Section 4.1): must be well below ``Delta / N``
  so starved threads are sampled, but large enough that quota-forced
  switches stay rare.
* deficit cap (Section 3.2 extension): bounding the carried-over
  deficit trades average-quota accuracy for burst control.
* miss-latency misestimation (Section 6): the mechanism uses a
  predefined ``miss_lat`` in Eq. 13; feeding it a wrong constant skews
  the quotas.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.controller import FairnessController
from repro.engine.soe import run_soe
from repro.experiments.common import EvalConfig, format_table
from repro.workloads.pairs import BenchmarkPair

__all__ = ["AblationPoint", "AblationResult", "run", "render"]

#: The pair the knobs are swept on (the pair that needs enforcement).
PAIR = BenchmarkPair("gcc", "eon")

#: The fairness level every sweep point enforces.
FAIRNESS_TARGET = 0.5


@dataclass(frozen=True)
class AblationPoint:
    """One configuration's outcome."""

    knob: str
    value: str
    total_ipc: float
    achieved_fairness: float
    forced_per_kcycle: float


@dataclass(frozen=True)
class AblationResult:
    pair_label: str
    fairness_target: float
    points: list[AblationPoint]

    def series(self, knob: str) -> list[AblationPoint]:
        return [p for p in self.points if p.knob == knob]


def _ablation_point(
    spec: tuple[str, str, EvalConfig, dict], ipc_st: tuple[float, ...]
) -> AblationPoint:
    """One sweep point of :data:`PAIR` at :data:`FAIRNESS_TARGET`.

    ``spec`` is ``(knob, value label, config, mechanism overrides)``:
    the point's machine, sample period and run window come from its
    config, and the overrides (deficit cap, assumed miss latency) are
    layered on the config's mechanism.
    """
    knob, value_label, config, mechanism = spec
    controller = FairnessController(
        2, replace(config.fairness_params(FAIRNESS_TARGET), **mechanism)
    )
    result = run_soe(
        PAIR.streams(seed=config.seed),
        controller,
        config.soe_params(),
        config.run_limits(),
    )
    return AblationPoint(
        knob,
        value_label,
        result.total_ipc,
        result.achieved_fairness(ipc_st),
        result.forced_switches_per_kcycle(),
    )


def run(config: EvalConfig = EvalConfig()) -> AblationResult:
    """Sweep each knob around ``config``; every other setting stays as
    configured."""
    from repro.experiments.runner import single_thread_ipcs

    ipc_st = single_thread_ipcs(PAIR, config)

    specs: list[tuple[str, str, EvalConfig, dict]] = []
    for period in (25_000.0, 100_000.0, 250_000.0, 1_000_000.0):
        specs.append(
            ("delta", f"{period:,.0f}", replace(config, sample_period=period), {})
        )
    for quota in (10_000.0, 50_000.0, 100_000.0):
        specs.append(
            ("max_cycles_quota", f"{quota:,.0f}",
             replace(config, max_cycles_quota=quota), {})
        )
    for cap_label, cap in (("none", None), ("2x quota-ish", 10_000.0),
                           ("tight", 2_000.0)):
        specs.append(("deficit_cap", cap_label, config, {"deficit_cap": cap}))
    for assumed in (150.0, 300.0, 600.0):
        specs.append(
            ("assumed_miss_lat", f"{assumed:g}", config, {"miss_lat": assumed})
        )

    return AblationResult(
        pair_label=PAIR.label,
        fairness_target=FAIRNESS_TARGET,
        points=[_ablation_point(spec, ipc_st) for spec in specs],
    )


def render(result: AblationResult) -> str:
    rows = [
        [
            p.knob,
            p.value,
            f"{p.total_ipc:.3f}",
            f"{p.achieved_fairness:.3f}",
            f"{p.forced_per_kcycle:.2f}",
        ]
        for p in result.points
    ]
    return format_table(
        ["knob", "value", "IPC_SOE", "achieved fairness", "forced/kcyc"],
        rows,
        title=(
            f"Ablations on {result.pair_label} at F = {result.fairness_target:g}"
        ),
    )
