"""Synthetic micro-op trace generation for the detailed core.

A :class:`CpuWorkloadSpec` describes a thread the way the paper's
program model sees it -- a retirement rate between misses (set
indirectly through instruction-level parallelism and operation mix) and
a mean instruction distance between last-level misses (``ipm``) -- and
:func:`make_trace` expands it into a concrete replayable
:class:`~repro.cpu.program.TraceProgram`:

* dependency chains: uops are dealt round-robin across ``ilp``
  independent serial chains, which caps the sustainable IPC at roughly
  ``min(ports, ilp / mean_latency)``;
* memory behaviour: most loads/stores hit a small hot working set;
  a load every ~``ipm`` instructions (geometric) walks a streaming
  region far larger than the L2 and misses to memory;
* control: a branch every ~``1/branch_fraction`` uops; most follow a
  loop pattern the gshare predictor learns, a ``branch_noise`` fraction
  are random and mispredict about half the time;
* code footprint: pcs walk a loop that fits (or not) in the L1I.

Threads get disjoint address spaces (distinct ``thread_index``), so in
SOE mode they compete for shared cache *sets* without aliasing to the
same lines.

The trace is built one pass over the code layout at a time: each pass
is a plain list, and :func:`make_trace`'s iterator chains them
(``itertools.chain.from_iterable``), so the core's fetch pulls each uop
with a C-level ``next`` instead of resuming a generator. Each pass
calls the thread's random generator in program order, so the uop
stream is the one a uop-at-a-time generator draws
(``tests/workloads/test_tracegen.py`` pins its digests).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain
from typing import Iterator

from repro.cpu.isa import NUM_ARCH_REGS, MicroOp, OpClass
from repro.cpu.program import TraceProgram
from repro.errors import ConfigurationError
from repro.workloads.addresses import HotSetAccessor, StreamingAccessor

__all__ = ["CpuWorkloadSpec", "make_trace", "COMPUTE_SPEC", "MEMORY_SPEC", "MIXED_SPEC"]

#: Address-space stride between threads (1 GiB).
_THREAD_STRIDE = 1 << 30
#: Streaming region size (16 MiB, far beyond a 2 MiB L2).
_STREAM_REGION = 16 * 1024 * 1024
#: How a pass builds the uop of an rng-dependent slot: (opclass, pc,
#: chain register, sources, next pc).
_Step = tuple[OpClass, int, int, tuple[int, ...], int]


@dataclass(frozen=True)
class CpuWorkloadSpec:
    """Parameters of one synthetic thread for the detailed core."""

    name: str
    #: independent dependency chains (ILP); higher -> higher IPC_no_miss
    ilp: int = 6
    #: mean instructions between streaming (L2-missing) loads
    ipm: float = 2_000.0
    load_fraction: float = 0.25
    store_fraction: float = 0.10
    branch_fraction: float = 0.12
    mul_fraction: float = 0.05
    fp_fraction: float = 0.05
    #: fraction of branches with random direction (~50% mispredicted)
    branch_noise: float = 0.05
    #: hot working-set bytes (L1-resident by default)
    hot_bytes: int = 16 * 1024
    #: code loop footprint in bytes
    code_bytes: int = 8 * 1024

    def __post_init__(self) -> None:
        if self.ilp < 1:
            raise ConfigurationError("ilp must be at least 1")
        if self.ilp > NUM_ARCH_REGS:
            # Each chain owns one architectural register.
            raise ConfigurationError(
                f"ilp must be at most {NUM_ARCH_REGS}, the architectural "
                f"register count, got {self.ilp}"
            )
        if self.code_bytes < 4:
            # A trace is generated one pass over the code at a time.
            raise ConfigurationError("code_bytes must hold one 4-byte instruction")
        if self.ipm <= 1:
            raise ConfigurationError("ipm must exceed 1")
        fractions = (
            self.load_fraction,
            self.store_fraction,
            self.branch_fraction,
            self.mul_fraction,
            self.fp_fraction,
        )
        if any(f < 0 for f in fractions) or sum(fractions) >= 1.0:
            raise ConfigurationError("op-mix fractions must be >= 0 and sum < 1")
        if not 0.0 <= self.branch_noise <= 1.0:
            raise ConfigurationError("branch_noise must be in [0, 1]")


def _build_layout(
    spec: CpuWorkloadSpec, rng: random.Random
) -> list[tuple[OpClass, int, bool]]:
    """Static code layout: (opclass, chain register, is_noise_branch)
    per pc slot.

    Real programs have a fixed instruction at each pc, so the layout is
    drawn once and replayed every loop iteration -- that is what lets
    the predictor/BTB learn and the I-cache settle, exactly as with
    real code. Only data addresses, noise-branch outcomes and the
    miss-load selection vary per dynamic instance.
    """
    slots = spec.code_bytes // 4
    layout = []
    load_cut = spec.load_fraction
    store_cut = load_cut + spec.store_fraction
    branch_cut = store_cut + spec.branch_fraction
    mul_cut = branch_cut + spec.mul_fraction
    fp_cut = mul_cut + spec.fp_fraction
    for slot in range(slots):
        chain_reg = slot % spec.ilp
        roll = rng.random()
        if roll < load_cut:
            opclass = OpClass.LOAD
        elif roll < store_cut:
            opclass = OpClass.STORE
        elif roll < branch_cut:
            opclass = OpClass.BRANCH
        elif roll < mul_cut:
            opclass = OpClass.MUL
        elif roll < fp_cut:
            opclass = OpClass.FP
        else:
            opclass = OpClass.ALU
        noise_branch = (
            opclass is OpClass.BRANCH and rng.random() < spec.branch_noise
        )
        layout.append((opclass, chain_reg, noise_branch))
    return layout


def _passes(
    spec: CpuWorkloadSpec, seed: int, thread_index: int
) -> Iterator[list[MicroOp]]:
    """The trace, one list per pass over the code layout (forever)."""
    rng = random.Random((seed << 8) ^ thread_index)
    base = thread_index * _THREAD_STRIDE
    code_base = base
    data_base = base + (1 << 24)
    stream_base = base + (1 << 26)

    hot = HotSetAccessor(data_base, spec.hot_bytes, rng)
    stream = StreamingAccessor(stream_base, _STREAM_REGION)
    layout = _build_layout(spec, random.Random(seed * 7919 + 13))
    # Adjust the miss probability for loads only: a miss-load every
    # ~ipm *instructions* means a higher per-load probability.
    miss_probability = min(1.0, 1.0 / (spec.ipm * spec.load_fraction))

    # Slots whose dynamic instances are rng-independent (ALU/MUL/FP and
    # predictable branches) always produce the same immutable MicroOp,
    # so build each once and reuse the shared instance every loop
    # iteration instead of re-validating a fresh record per dynamic
    # uop. LOAD/STORE/noise-branch slots get a ``_Step`` instead and are
    # materialized per instance (their addresses/outcomes consume the
    # rng stream in program order).
    slots = len(layout)
    plan: list[MicroOp | _Step] = []
    for index, (opclass, chain_reg, noise_branch) in enumerate(layout):
        pc = code_base + index * 4
        next_pc = code_base + ((index + 1) % slots) * 4
        if opclass is OpClass.BRANCH:
            if noise_branch:
                plan.append((opclass, pc, chain_reg, (chain_reg,), next_pc))
            else:
                plan.append(MicroOp(
                    OpClass.BRANCH, pc, None, (chain_reg,), None, True, next_pc
                ))
        elif opclass is OpClass.LOAD or opclass is OpClass.STORE:
            plan.append((opclass, pc, chain_reg, (chain_reg,), next_pc))
        else:
            plan.append(MicroOp(opclass, pc, chain_reg, (chain_reg,)))

    load, store, branch = OpClass.LOAD, OpClass.STORE, OpClass.BRANCH
    rand = rng.random
    hot_next = hot.next_address
    stream_next = stream.next_address
    while True:
        chunk: list[MicroOp] = []
        append = chunk.append
        for step in plan:
            if isinstance(step, MicroOp):
                append(step)
                continue
            opclass, pc, chain_reg, srcs, next_pc = step
            if opclass is load:
                if rand() < miss_probability:
                    address = stream_next()
                else:
                    address = hot_next()
                append(MicroOp(load, pc, chain_reg, srcs, address))
            elif opclass is store:
                append(MicroOp(store, pc, None, srcs, hot_next()))
            else:  # noise branch: direction drawn per dynamic instance
                append(MicroOp(branch, pc, None, srcs, None, rand() < 0.5, next_pc))
        yield chunk


def make_trace(
    spec: CpuWorkloadSpec, seed: int = 0, thread_index: int = 0
) -> TraceProgram:
    """A restartable trace for one thread of the detailed core."""
    return TraceProgram(
        lambda: chain.from_iterable(_passes(spec, seed, thread_index)),
        name=f"{spec.name}#{thread_index}",
    )


#: Representative specs used by the validation experiment: an eon-like
#: compute-bound thread, a swim-like memory-bound thread, and a
#: gcc-like mixed thread.
COMPUTE_SPEC = CpuWorkloadSpec(
    name="cpu-compute", ilp=8, ipm=50_000.0, load_fraction=0.20,
    store_fraction=0.08, branch_fraction=0.12, branch_noise=0.02,
)
MEMORY_SPEC = CpuWorkloadSpec(
    name="cpu-memory", ilp=6, ipm=500.0, load_fraction=0.30,
    store_fraction=0.10, branch_fraction=0.08, branch_noise=0.03,
)
MIXED_SPEC = CpuWorkloadSpec(
    name="cpu-mixed", ilp=4, ipm=2_000.0, load_fraction=0.25,
    store_fraction=0.10, branch_fraction=0.14, branch_noise=0.08,
)
