"""Tests for the synthetic trace generator and address patterns."""

import hashlib
import itertools
import random

import pytest

from repro.cpu.isa import NUM_ARCH_REGS, OpClass
from repro.errors import ConfigurationError
from repro.workloads.addresses import HotSetAccessor, StreamingAccessor
from repro.workloads.cpu_mapping import cpu_spec_for_profile
from repro.workloads.spec2000 import get_profile
from repro.workloads.tracegen import (
    COMPUTE_SPEC,
    MEMORY_SPEC,
    MIXED_SPEC,
    CpuWorkloadSpec,
    make_trace,
)


def take(program, n):
    return list(itertools.islice(program.uops(), n))


class TestAccessors:
    def test_hot_set_stays_in_bounds(self):
        accessor = HotSetAccessor(0x1000, 4096, random.Random(0))
        for _ in range(1_000):
            address = accessor.next_address()
            assert 0x1000 <= address < 0x1000 + 4096

    def test_streaming_advances_by_stride(self):
        accessor = StreamingAccessor(0, 1024, stride=64)
        addresses = [accessor.next_address() for _ in range(4)]
        assert addresses == [0, 64, 128, 192]

    def test_streaming_wraps(self):
        accessor = StreamingAccessor(0, 128, stride=64)
        addresses = [accessor.next_address() for _ in range(3)]
        assert addresses == [0, 64, 0]

    @pytest.mark.parametrize("size_bytes", [8, 64, 4096, 16 * 1024, 24 * 1000])
    def test_hot_set_draws_match_randrange(self, size_bytes):
        accessor = HotSetAccessor(0x1000, size_bytes, random.Random(5))
        twin = random.Random(5)
        slots = size_bytes // 8
        for _ in range(500):
            assert accessor.next_address() == 0x1000 + twin.randrange(slots) * 8

    def test_bad_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            HotSetAccessor(0, 0, random.Random(0))
        with pytest.raises(ConfigurationError):
            StreamingAccessor(0, 0)


class TestCpuWorkloadSpec:
    def test_rejects_bad_mix(self):
        with pytest.raises(ConfigurationError):
            CpuWorkloadSpec(name="bad", load_fraction=0.9, store_fraction=0.2)

    def test_rejects_bad_ilp(self):
        with pytest.raises(ConfigurationError):
            CpuWorkloadSpec(name="bad", ilp=0)

    def test_rejects_more_chains_than_registers(self):
        # Each chain owns one register, so this used to fail only at the
        # first fetch of a pipeline run.
        with pytest.raises(ConfigurationError, match="ilp must be at most 16"):
            CpuWorkloadSpec(name="bad", ilp=NUM_ARCH_REGS + 1)
        spec = CpuWorkloadSpec(name="widest", ilp=NUM_ARCH_REGS)
        uops = take(make_trace(spec, seed=1), 2 * NUM_ARCH_REGS)
        assert {u.dest for u in uops if u.dest is not None} <= set(
            range(NUM_ARCH_REGS)
        )


    def test_rejects_code_without_one_instruction(self):
        # A trace is built one pass over the code at a time; an empty
        # layout would make an endless run of empty passes.
        with pytest.raises(ConfigurationError, match="code_bytes"):
            CpuWorkloadSpec(name="bad", code_bytes=3)
        spec = CpuWorkloadSpec(name="one-slot", code_bytes=4)
        assert {u.pc for u in take(make_trace(spec, seed=1), 10)} == {0}


class TestMakeTrace:
    def test_deterministic_per_seed(self):
        a = take(make_trace(MEMORY_SPEC, seed=3), 200)
        b = take(make_trace(MEMORY_SPEC, seed=3), 200)
        assert a == b

    def test_different_seeds_differ(self):
        a = take(make_trace(MEMORY_SPEC, seed=1), 200)
        b = take(make_trace(MEMORY_SPEC, seed=2), 200)
        assert a != b

    def test_code_layout_is_static(self):
        # The op class at each pc must repeat across loop iterations.
        slots = COMPUTE_SPEC.code_bytes // 4
        uops = take(make_trace(COMPUTE_SPEC, seed=1), slots * 2)
        first, second = uops[:slots], uops[slots:]
        for a, b in zip(first, second):
            assert a.pc == b.pc
            assert a.opclass == b.opclass

    def test_mix_approximates_spec(self):
        uops = take(make_trace(MEMORY_SPEC, seed=1), 20_000)
        loads = sum(1 for u in uops if u.opclass is OpClass.LOAD)
        branches = sum(1 for u in uops if u.opclass is OpClass.BRANCH)
        assert loads / len(uops) == pytest.approx(MEMORY_SPEC.load_fraction, abs=0.05)
        assert branches / len(uops) == pytest.approx(
            MEMORY_SPEC.branch_fraction, abs=0.05
        )

    def test_streaming_load_rate_approximates_ipm(self):
        uops = take(make_trace(MEMORY_SPEC, seed=1), 50_000)
        streaming = sum(
            1
            for u in uops
            if u.opclass is OpClass.LOAD and u.address >= (1 << 26)
        )
        observed_ipm = len(uops) / max(streaming, 1)
        assert observed_ipm == pytest.approx(MEMORY_SPEC.ipm, rel=0.25)

    def test_threads_get_disjoint_address_spaces(self):
        a = take(make_trace(MEMORY_SPEC, seed=1, thread_index=0), 500)
        b = take(make_trace(MEMORY_SPEC, seed=1, thread_index=1), 500)
        max_a = max(u.address for u in a if u.address is not None)
        min_b = min(u.address for u in b if u.address is not None)
        assert max_a < min_b

    def test_branch_targets_match_next_pc(self):
        uops = take(make_trace(COMPUTE_SPEC, seed=1), 5_000)
        for i, uop in enumerate(uops[:-1]):
            if uop.opclass is OpClass.BRANCH:
                assert uop.target == uops[i + 1].pc



#: SHA-256 of the first 20k uops of each trace, captured before the
#: hot-set draw inlined ``Random.randrange``.
_TRACE_DIGESTS = {
    "compute": "0b496f7fd8cbea3f05f5bd13f767149a93f5e9091d660a42f32165fe4f2354a0",
    "memory": "60216030edc1dfc1b3d7a8d01c6bd53ec7bf6aae4e7fca1f44b466d0ceebdde5",
    "mixed": "252ff1c3758326a2b97b3f463f645a2659f94a89b38587d42309302bf0e33e99",
    "gcc": "e9686511ab91b866dcba780a6187bda8c27e89251e567fa1237e53bc0a99b639",
    "eon": "c912f1b2adae43cd8f7a571a87bded23c4c0e1ef0608b2ec47f8370b9aca8364",
}


def _trace_digest(program, n=20_000):
    """SHA-256 over every field of the first ``n`` uops of ``program``."""
    digest = hashlib.sha256()
    for uop in itertools.islice(program.uops(), n):
        digest.update(
            repr(
                (uop.opclass.value, uop.pc, uop.dest, uop.srcs, uop.address,
                 uop.taken, uop.target)
            ).encode()
        )
    return digest.hexdigest()


class TestTraceDigests:
    """The exact uop streams, pinned.

    Hot-set addresses come from an inlined copy of ``Random.randrange``'s
    rejection loop; these digests fail if it ever draws a different
    stream than the library call on a supported Python.
    """

    @pytest.mark.parametrize(
        ("key", "spec", "seed", "thread_index"),
        [
            ("compute", COMPUTE_SPEC, 1, 0),
            ("memory", MEMORY_SPEC, 2, 1),
            ("mixed", MIXED_SPEC, 3, 0),
        ],
    )
    def test_representative_specs(self, key, spec, seed, thread_index):
        program = make_trace(spec, seed=seed, thread_index=thread_index)
        assert _trace_digest(program) == _TRACE_DIGESTS[key]

    @pytest.mark.parametrize(
        ("key", "seed", "thread_index"), [("gcc", 1, 0), ("eon", 2, 1)]
    )
    def test_mapped_profiles(self, key, seed, thread_index):
        spec = cpu_spec_for_profile(get_profile(key))
        program = make_trace(spec, seed=seed, thread_index=thread_index)
        assert _trace_digest(program) == _TRACE_DIGESTS[key]
