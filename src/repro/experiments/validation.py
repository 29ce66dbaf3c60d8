"""Cross-validation: analytical model vs segment engine vs detailed core.

Footnote 2 of the paper argues the segment model "gives adequate
approximation" of the detailed simulator. This experiment quantifies
that claim for our stack:

1. **model vs segment engine** on deterministic workloads, where the two
   must agree almost exactly (the engine is an exact executor of the
   model's assumptions, so residual differences come only from
   end-effects and the idle-on-unresolved-miss behaviour Eq. 2 ignores);
2. **segment engine vs detailed out-of-order core** on matched
   workloads, where differences reflect the microarchitecture the
   segment model abstracts away (frontend refill, clustered misses,
   shared predictor state).

Part 2 runs only when the detailed-core comparison is requested, since
the cycle-level simulator is orders of magnitude slower.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.model import SoeModel, ThreadParams
from repro.engine.soe import RunLimits, SoeParams, run_soe
from repro.experiments.common import EvalConfig, format_table
from repro.workloads.synthetic import uniform_stream

__all__ = ["ValidationCase", "ValidationResult", "run", "render"]


@dataclass(frozen=True)
class ValidationCase:
    label: str
    model_ipcs: tuple[float, ...]
    engine_ipcs: tuple[float, ...]

    @property
    def max_relative_error(self) -> float:
        errors = [
            abs(e - m) / m
            for e, m in zip(self.engine_ipcs, self.model_ipcs)
            if m > 0
        ]
        return max(errors) if errors else 0.0


@dataclass(frozen=True)
class ValidationResult:
    cases: list[ValidationCase]
    cpu_cases: list["CpuValidationCase"]

    @property
    def worst_error(self) -> float:
        return max(c.max_relative_error for c in self.cases)


@dataclass(frozen=True)
class CpuValidationCase:
    """Detailed-core comparison (populated when include_cpu=True)."""

    label: str
    engine_ipc: float
    cpu_ipc: float

    @property
    def relative_error(self) -> float:
        # repro-lint: disable=RL004 - exact zero means "no reference IPC"
        if self.engine_ipc == 0:
            return 0.0
        return abs(self.cpu_ipc - self.engine_ipc) / self.engine_ipc


#: (label, (ipc1, ipm1), (ipc2, ipm2)) matrix spanning balanced,
#: imbalanced and memory-bound behaviour.
CASES = (
    ("balanced", (2.5, 15_000.0), (2.5, 1_000.0)),
    ("both missy", (2.0, 800.0), (2.0, 700.0)),
    ("compute vs memory", (2.8, 40_000.0), (1.2, 300.0)),
    ("asymmetric ipc", (3.0, 5_000.0), (1.5, 5_000.0)),
)


def run(
    include_cpu: bool = False,
    config: EvalConfig = EvalConfig(),
) -> ValidationResult:
    """Compare model and engine on every case (and, with
    ``include_cpu``, engine and detailed core) at ``config``'s miss and
    switch latencies; each engine run is ``config.st_min_instructions``
    long."""
    seed_base = 2 * config.seed
    params = SoeParams(miss_lat=config.miss_lat, switch_lat=config.switch_lat)
    cases = []
    for label, (ipc1, ipm1), (ipc2, ipm2) in CASES:
        model = SoeModel(
            [ThreadParams(ipc1, ipm1), ThreadParams(ipc2, ipm2)],
            miss_lat=config.miss_lat,
            switch_lat=config.switch_lat,
        )
        streams = [
            uniform_stream(ipc1, ipm1, seed=seed_base + 1),
            uniform_stream(ipc2, ipm2, seed=seed_base + 2),
        ]
        result = run_soe(
            streams,
            params=params,
            limits=RunLimits(min_instructions=config.st_min_instructions),
        )
        cases.append(
            ValidationCase(
                label=label,
                model_ipcs=tuple(model.soe_ipcs(0.0)),
                engine_ipcs=tuple(result.ipcs),
            )
        )
    cpu_cases: list[CpuValidationCase] = []
    if include_cpu:
        cpu_cases = _cpu_comparison(config.miss_lat)
    return ValidationResult(cases=cases, cpu_cases=cpu_cases)


def _cpu_comparison(miss_lat: float) -> list[CpuValidationCase]:
    """Compare the detailed core's measured SOE IPC against a segment
    engine run parameterized with the statistics the core itself
    reports."""
    from repro.cpu.validation import matched_workload_comparison

    return [
        CpuValidationCase(label=label, engine_ipc=engine_ipc, cpu_ipc=cpu_ipc)
        for label, engine_ipc, cpu_ipc in matched_workload_comparison(
            miss_lat=miss_lat
        )
    ]


def render(result: ValidationResult) -> str:
    rows = []
    for case in result.cases:
        rows.append(
            [
                case.label,
                "/".join(f"{x:.3f}" for x in case.model_ipcs),
                "/".join(f"{x:.3f}" for x in case.engine_ipcs),
                f"{case.max_relative_error:.2%}",
            ]
        )
    text = format_table(
        ["case", "model IPC_SOE_j", "engine IPC_SOE_j", "max rel err"],
        rows,
        title="Validation: analytical model vs segment engine (F = 0)",
    )
    text += f"\nworst-case relative error: {result.worst_error:.2%}"
    if result.cpu_cases:
        cpu_rows = [
            [c.label, f"{c.engine_ipc:.3f}", f"{c.cpu_ipc:.3f}",
             f"{c.relative_error:.1%}"]
            for c in result.cpu_cases
        ]
        text += "\n\n" + format_table(
            ["case", "segment engine IPC", "detailed core IPC", "rel err"],
            cpu_rows,
            title="Validation: segment engine vs detailed out-of-order core",
        )
    return text
