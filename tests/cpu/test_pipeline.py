"""Tests for the out-of-order pipeline (single-thread behaviour)."""

import tracemalloc

import pytest

from repro.cpu.isa import MicroOp, OpClass
from repro.cpu.machine import MachineConfig
from repro.cpu.pipeline import OooPipeline
from repro.cpu.program import TraceProgram
from repro.cpu.soe_core import run_cpu_single_thread
from repro.workloads.tracegen import COMPUTE_SPEC, make_trace

#: A small code footprint so the I-cache warms quickly in tests.
CODE_SLOTS = 256


def looped(make_uop):
    """An infinite program whose pc walks a small loop."""

    def generate():
        slot = 0
        while True:
            yield make_uop(slot % CODE_SLOTS, slot)
            slot += 1

    return TraceProgram(lambda: generate())


def alu_independent():
    return looped(lambda pc_slot, i: MicroOp(OpClass.ALU, pc=pc_slot * 4,
                                             dest=i % 8, srcs=(i % 8,)))


def alu_serial():
    return looped(lambda pc_slot, i: MicroOp(OpClass.ALU, pc=pc_slot * 4,
                                             dest=0, srcs=(0,)))


def hot_loads(stride=8, set_bytes=8192):
    return looped(
        lambda pc_slot, i: MicroOp(
            OpClass.LOAD, pc=pc_slot * 4, dest=i % 8, srcs=(i % 8,),
            address=0x100000 + (i * stride) % set_bytes,
        )
    )


class TestThroughput:
    def test_independent_alu_saturates_ports(self):
        result = run_cpu_single_thread(
            alu_independent(), min_instructions=8_000, warmup_instructions=2_000
        )
        # 3 ALU ports bound the sustained rate.
        assert result.total_ipc == pytest.approx(3.0, abs=0.2)

    def test_serial_chain_runs_at_one_per_cycle(self):
        result = run_cpu_single_thread(
            alu_serial(), min_instructions=6_000, warmup_instructions=2_000
        )
        assert result.total_ipc == pytest.approx(1.0, abs=0.1)

    def test_hot_loads_bound_by_load_port(self):
        result = run_cpu_single_thread(
            hot_loads(), min_instructions=6_000, warmup_instructions=2_000
        )
        # One load port: at most one load issues per cycle.
        assert result.total_ipc <= 1.1
        assert result.total_ipc > 0.5

    def test_wider_machine_is_faster(self):
        narrow = MachineConfig(fetch_width=2, rename_width=2, retire_width=2)
        r_narrow = run_cpu_single_thread(
            alu_independent(), config=narrow,
            min_instructions=6_000, warmup_instructions=2_000,
        )
        r_wide = run_cpu_single_thread(
            alu_independent(), min_instructions=6_000, warmup_instructions=2_000
        )
        assert r_wide.total_ipc > r_narrow.total_ipc


class TestMemoryBehaviour:
    def test_streaming_loads_miss_and_stall(self):
        def make(pc_slot, i):
            return MicroOp(
                OpClass.LOAD, pc=pc_slot * 4, dest=0, srcs=(0,),
                address=0x4000000 + i * 64,  # new line every load
            )

        result = run_cpu_single_thread(
            looped(make), min_instructions=600, warmup_instructions=100
        )
        # Serial dependent missing loads: ~memory latency per load.
        assert result.total_ipc < 0.01

    def test_independent_misses_overlap(self):
        def dependent(pc_slot, i):
            return MicroOp(OpClass.LOAD, pc=pc_slot * 4, dest=0, srcs=(0,),
                           address=0x4000000 + i * 64)

        def independent(pc_slot, i):
            return MicroOp(OpClass.LOAD, pc=pc_slot * 4, dest=i % 8, srcs=(),
                           address=0x4000000 + i * 64)

        serial = run_cpu_single_thread(
            looped(dependent), min_instructions=400, warmup_instructions=50
        )
        overlapped = run_cpu_single_thread(
            looped(independent), min_instructions=400, warmup_instructions=50
        )
        # The OOO window overlaps independent misses (footnote 5's
        # prefetching effect); dependent misses serialize.
        assert overlapped.total_ipc > 2.0 * serial.total_ipc

    def test_store_forwarding_beats_cache_misses(self):
        def store_then_load(pc_slot, i):
            address = 0x5000000 + (i // 2) * 64
            if i % 2 == 0:
                return MicroOp(OpClass.STORE, pc=pc_slot * 4, srcs=(0,),
                               address=address)
            return MicroOp(OpClass.LOAD, pc=pc_slot * 4, dest=1, srcs=(),
                           address=address)

        result = run_cpu_single_thread(
            looped(store_then_load), min_instructions=2_000,
            warmup_instructions=500,
        )
        # Every load forwards from the store to a never-before-seen
        # line: without forwarding each pair would cost ~300 cycles.
        assert result.total_ipc > 0.5


class TestBranchEffects:
    def test_predictable_branches_are_cheap(self):
        def make(pc_slot, i):
            if pc_slot % 8 == 7:
                return MicroOp(OpClass.BRANCH, pc=pc_slot * 4, taken=True,
                               target=((pc_slot + 1) % CODE_SLOTS) * 4)
            return MicroOp(OpClass.ALU, pc=pc_slot * 4, dest=i % 8, srcs=(i % 8,))

        result = run_cpu_single_thread(
            looped(make), min_instructions=8_000, warmup_instructions=3_000
        )
        assert result.branch_mispredict_rate < 0.05
        assert result.total_ipc > 2.0

    def test_random_branches_cost_throughput(self):
        import random

        rng_holder = random.Random(3)

        def make(pc_slot, i):
            if pc_slot % 8 == 7:
                return MicroOp(OpClass.BRANCH, pc=pc_slot * 4,
                               taken=rng_holder.random() < 0.5,
                               target=((pc_slot + 1) % CODE_SLOTS) * 4)
            return MicroOp(OpClass.ALU, pc=pc_slot * 4, dest=i % 8, srcs=(i % 8,))

        result = run_cpu_single_thread(
            looped(make), min_instructions=8_000, warmup_instructions=3_000
        )
        assert result.branch_mispredict_rate > 0.2
        assert result.total_ipc < 2.0


class TestFiniteness:
    def test_finite_program_terminates(self):
        uops = [MicroOp(OpClass.ALU, pc=i * 4, dest=0, srcs=(0,)) for i in range(50)]
        from repro.cpu.program import program_from_uops

        result = run_cpu_single_thread(
            program_from_uops(uops), min_instructions=1_000_000
        )
        assert result.threads[0].retired == 50

    def test_max_cycles_safety(self):
        result = run_cpu_single_thread(
            alu_serial(), min_instructions=10**9, max_cycles=5_000
        )
        assert result.cycles <= 5_001

    def test_deterministic(self):
        r1 = run_cpu_single_thread(alu_independent(), min_instructions=3_000)
        r2 = run_cpu_single_thread(alu_independent(), min_instructions=3_000)
        assert r1.cycles == r2.cycles
        assert r1.total_ipc == r2.total_ipc


class TestMemoryRetention:
    def test_peak_memory_does_not_grow_with_run_length(self):
        """Retired uops must be freed: a single-thread run never flushes,
        so any link from a live uop back to its producers' producers
        would keep every uop of the run alive."""

        def peak_bytes(instructions):
            tracemalloc.start()
            try:
                run_cpu_single_thread(
                    make_trace(COMPUTE_SPEC, seed=1), min_instructions=instructions
                )
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = peak_bytes(10_000), peak_bytes(40_000)
        assert long <= 1.5 * short, (short, long)
