"""Detailed cycle-level out-of-order core simulator.

This package is the from-scratch substitute for the proprietary
P6-derived simulator the paper evaluates on: a trace-driven,
cycle-level out-of-order core (frontend, rename, ROB/RS scheduling,
load/store buffers with forwarding rules, gshare+BTB branch prediction)
over a full memory hierarchy (L1I/L1D, unified L2, i/dTLBs with page
walks, pipelined bus, fixed-latency memory with miss overlap), plus SOE
multithreading with the retirement-stage switch trigger and pipeline
drain described in Section 4.1.

The fairness mechanism is *not* reimplemented here -- the pipeline
drives the same :class:`~repro.core.policy.SwitchPolicy` objects as the
segment engine, demonstrating the paper's claim that the mechanism is
architectural.
"""

from repro.cpu.branch import BranchPredictor
from repro.cpu.bus import PipelinedBus
from repro.cpu.caches import Cache
from repro.cpu.hierarchy import AccessResult, MemoryHierarchy
from repro.cpu.isa import NUM_ARCH_REGS, MicroOp, OpClass
from repro.cpu.machine import CacheConfig, MachineConfig
from repro.cpu.pipeline import CpuRunResult, CpuThreadStats, OooPipeline
from repro.cpu.program import ProgramCursor, TraceProgram, program_from_uops
from repro.cpu.soe_core import run_cpu_single_thread, run_cpu_soe
from repro.cpu.tlb import Tlb

__all__ = [
    "AccessResult",
    "BranchPredictor",
    "Cache",
    "CacheConfig",
    "CpuRunResult",
    "CpuThreadStats",
    "MachineConfig",
    "MemoryHierarchy",
    "MicroOp",
    "NUM_ARCH_REGS",
    "OooPipeline",
    "OpClass",
    "PipelinedBus",
    "ProgramCursor",
    "TraceProgram",
    "Tlb",
    "program_from_uops",
    "run_cpu_single_thread",
    "run_cpu_soe",
]
