"""High-level runners for the detailed core.

Mirrors :mod:`repro.engine`'s API shape on the cycle-level substrate:
``run_cpu_single_thread`` measures a workload's real single-thread IPC
(with natural out-of-order miss overlap), ``run_cpu_soe`` runs multiple
threads under SOE with any :class:`~repro.core.policy.SwitchPolicy` --
including the full :class:`~repro.core.controller.FairnessController`.

Telemetry rides along inside the pipeline: when a trace sink is
active, a multithreaded run emits a ``switch`` event (with its cause)
per thread switch-out -- the same event stream the segment engine
produces, tagged ``substrate="cpu"``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.policy import SwitchPolicy
from repro.cpu.machine import MachineConfig
from repro.cpu.pipeline import CpuRunResult, OooPipeline
from repro.cpu.program import TraceProgram
from repro.errors import ConfigurationError
from repro.telemetry.profile import PROFILE

__all__ = ["run_cpu_single_thread", "run_cpu_soe"]


def run_cpu_single_thread(
    program: TraceProgram,
    config: MachineConfig = MachineConfig(),
    min_instructions: int = 20_000,
    warmup_instructions: int = 0,
    max_cycles: int = 50_000_000,
) -> CpuRunResult:
    """Run one workload alone on the detailed core.

    There is no thread to switch to, so last-level misses stall
    retirement while the out-of-order window keeps issuing younger
    work -- the miss-overlap effect the segment model captures with the
    profile-level ``miss_overlap`` knob.
    """
    pipeline = OooPipeline([program], config)
    result = pipeline.run(
        min_instructions=min_instructions,
        warmup_instructions=warmup_instructions,
        max_cycles=max_cycles,
    )
    PROFILE.record_cycles(float(pipeline.now))
    return result


def run_cpu_soe(
    programs: Sequence[TraceProgram],
    policy: Optional[SwitchPolicy] = None,
    config: MachineConfig = MachineConfig(),
    min_instructions: int = 20_000,
    warmup_instructions: int = 0,
    max_cycles: int = 50_000_000,
) -> CpuRunResult:
    """Run two or more workloads under SOE on the detailed core."""
    if len(programs) < 2:
        raise ConfigurationError("SOE needs at least two programs")
    pipeline = OooPipeline(programs, config, policy)
    result = pipeline.run(
        min_instructions=min_instructions,
        warmup_instructions=warmup_instructions,
        max_cycles=max_cycles,
    )
    PROFILE.record_cycles(float(pipeline.now))
    return result
