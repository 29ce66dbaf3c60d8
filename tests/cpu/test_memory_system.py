"""Tests for the memory system: write-back caches and their bus
traffic, and miss-latency measurement on the detailed core."""

from repro.cpu.caches import Cache
from repro.cpu.hierarchy import MemoryHierarchy
from repro.cpu.machine import CacheConfig, MachineConfig


def small_cache(assoc=2):
    return Cache(CacheConfig(1024, assoc, 64, 1))


class TestWriteBackState:
    def test_store_marks_line_dirty_and_eviction_reports_it(self):
        cache = small_cache(assoc=2)
        set_stride = 8 * 64
        cache.access(0, is_write=True)
        cache.access(set_stride)
        cache.access(2 * set_stride)  # evicts the dirty line at 0
        assert cache.last_eviction_was_dirty
        assert cache.writebacks == 1
        assert cache.last_victim_line == 0

    def test_clean_eviction_not_reported(self):
        cache = small_cache(assoc=2)
        set_stride = 8 * 64
        cache.access(0)
        cache.access(set_stride)
        cache.access(2 * set_stride)
        assert not cache.last_eviction_was_dirty
        assert cache.writebacks == 0

    def test_write_hit_dirties_resident_line(self):
        cache = small_cache(assoc=2)
        set_stride = 8 * 64
        cache.access(0)                      # clean fill
        cache.access(0, is_write=True)       # dirtied by a later store
        cache.access(set_stride)
        cache.access(2 * set_stride)         # evicts line 0
        assert cache.last_eviction_was_dirty

    def test_victim_line_reconstructs_address(self):
        cache = small_cache(assoc=2)
        set_stride = 8 * 64
        base = 3 * 64  # set 3
        cache.access(base, is_write=True)
        cache.access(base + set_stride)
        cache.access(base + 2 * set_stride)
        assert cache.last_victim_line * 64 == base


class TestHierarchyWritebacks:
    def test_store_heavy_workload_generates_writebacks(self):
        hierarchy = MemoryHierarchy(MachineConfig())
        # Dirty far more lines than the L1 holds.
        for i in range(4_096):
            hierarchy.store_access(0x100000 + i * 64, i * 10)
        assert hierarchy.l1d.writebacks > 0

    def test_l2_dirty_evictions_consume_bus(self):
        hierarchy = MemoryHierarchy(MachineConfig())
        lines = (2 * 1024 * 1024) // 64  # L2 line capacity
        fills = 0
        for i in range(lines + 8_192):
            # Every store is to a new line, so no miss merges into an
            # outstanding fill: each L2 miss is one demand fill.
            result = hierarchy.store_access(0x100000 + i * 64, i * 400)
            fills += result.l2_miss
        # Demand fills alone would be one transfer per fill; dirty L2
        # evictions add write-back transfers on top.
        assert hierarchy.bus.transfers > fills


class TestMeasuredLatencyInPipeline:
    def test_measuring_controller_records_latency_per_thread(self):
        from repro.core.controller import FairnessController, FairnessParams
        from repro.cpu.soe_core import run_cpu_soe
        from repro.workloads.tracegen import CpuWorkloadSpec, make_trace

        memory_spec = CpuWorkloadSpec(
            name="measured-mem", ilp=6, ipm=400.0, load_fraction=0.3,
            store_fraction=0.05, branch_fraction=0.08, branch_noise=0.02,
            hot_bytes=4 * 1024, code_bytes=2 * 1024,
        )
        controller = FairnessController(
            2,
            FairnessParams(
                fairness_target=0.5, sample_period=4_000.0,
                measure_miss_latency=True,
            ),
        )
        result = run_cpu_soe(
            [
                make_trace(memory_spec, seed=1, thread_index=0),
                make_trace(memory_spec, seed=2, thread_index=1),
            ],
            controller,
            min_instructions=4_000,
            warmup_instructions=2_000,
        )
        assert result.total_ipc > 0
        latencies = controller.measured_latencies
        assert latencies is not None
        assert len(latencies) == 2
        # A thread with no observed miss would report the assumed 300;
        # a measured miss also pays the L1 and L2 lookups on its way
        # to memory, so each thread's latency was really measured.
        assert all(latency != 300.0 for latency in latencies)
        history = controller.history
        assert history
        for point in history:
            assert all(estimate.miss_lat is not None for estimate in point.estimates)
