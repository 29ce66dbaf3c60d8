"""Tests for the composed memory hierarchy."""

import pytest

from repro.cpu.hierarchy import AccessResult, MemoryHierarchy
from repro.cpu.machine import MachineConfig


@pytest.fixture()
def hierarchy():
    return MemoryHierarchy(MachineConfig())


class TestDataPath:
    def test_l1_hit_latency(self, hierarchy):
        hierarchy.data_access(0x1000, 0)  # warm the line (and the TLB)
        # Probe after the fill completes (a probe during the fill would
        # correctly merge into the outstanding miss instead).
        result = hierarchy.data_access(0x1000, 1_000)
        assert result.ready_at == 1_000 + hierarchy.config.l1d.latency == 1_003
        assert not result.l2_miss
        assert hierarchy.l1d.hits == 1 and hierarchy.l2.accesses == 1
        assert hierarchy.dtlb.hits == 1 and hierarchy.dtlb.misses == 1

    def test_cold_access_goes_to_memory(self, hierarchy):
        result = hierarchy.data_access(0x100000, 0)
        assert result.l2_miss
        assert hierarchy.l2.misses == 1 and hierarchy.bus.transfers == 1
        # page walk + L1 + L2 lookups + memory latency
        assert result.ready_at >= 300

    def test_tlb_walk_charged_once_per_page(self, hierarchy):
        config = hierarchy.config
        # Both accesses are cold fills on an idle bus, to two lines of
        # one page; only the first pays the page walk.
        fill = config.l1d.latency + config.l2.latency + config.memory_latency
        first = hierarchy.data_access(0x2000, 0)
        assert first.ready_at == config.page_walk_latency + fill
        assert hierarchy.dtlb.misses == 1
        second = hierarchy.data_access(0x2040, 10_000)
        assert second.ready_at == 10_000 + fill
        assert hierarchy.dtlb.misses == 1 and hierarchy.dtlb.hits == 1

    def test_l2_hit_after_l1_eviction(self, hierarchy):
        config = hierarchy.config
        base = 0x400000
        hierarchy.data_access(base, 0)
        # Thrash the L1 set containing `base` with same-set lines; they
        # stay resident in the much larger L2.
        l1_set_stride = config.l1d.num_sets * config.l1d.line_bytes
        for i in range(1, config.l1d.associativity + 2):
            hierarchy.data_access(base + i * l1_set_stride, 1000 + i)
        l2_hits = hierarchy.l2.hits
        result = hierarchy.data_access(base, 10_000)
        assert not result.l2_miss
        assert hierarchy.l2.hits == l2_hits + 1
        assert result.ready_at == 10_000 + config.l1d.latency + config.l2.latency

    def test_outstanding_fill_merges(self, hierarchy):
        first = hierarchy.data_access(0x800000, 0)
        # A second access to the same line while the fill is in flight
        # merges instead of paying another memory round trip.
        second = hierarchy.data_access(0x800010, 5)
        assert second.l2_miss
        assert second.ready_at == first.ready_at
        assert hierarchy.bus.transfers == 1

    def test_distinct_lines_serialize_on_the_bus(self, hierarchy):
        a = hierarchy.data_access(0x800000, 0)
        b = hierarchy.data_access(0x900000, 0)
        assert b.ready_at > a.ready_at
        assert hierarchy.bus.transfers == 2

    def test_every_return_path_builds_an_access_result(self, hierarchy):
        # The results are built with tuple.__new__, not the NamedTuple's
        # own __new__; each return path must still give the same type.
        config = hierarchy.config
        stride = config.l1d.num_sets * config.l1d.line_bytes
        results = [
            hierarchy.data_access(0x800000, 0),  # memory fill
            hierarchy.data_access(0x800010, 5),  # merges into the fill
            hierarchy.data_access(0x800000, 10_000),  # L1 hit
        ]
        for i in range(1, config.l1d.associativity + 2):
            hierarchy.data_access(0x800000 + i * stride, 10_000 + i)
        results.append(hierarchy.data_access(0x800000, 20_000))  # L2 hit
        assert all(type(r) is AccessResult for r in results)
        assert [r.l2_miss for r in results] == [True, True, False, False]


class TestMemoryFill:
    @pytest.mark.parametrize("memory_latency", [0, 100, 300])
    def test_fill_ready_after_lookups_and_memory_latency(self, memory_latency):
        config = MachineConfig(memory_latency=memory_latency)
        hierarchy = MemoryHierarchy(config)
        result = hierarchy.data_access(0x100000, 0)
        # cold dTLB walk, L1 and L2 lookups, an idle bus, then memory
        lookups = config.page_walk_latency + config.l1d.latency + config.l2.latency
        assert result.ready_at == lookups + memory_latency
        assert result.l2_miss and hierarchy.bus.transfers == 1

    def test_busy_bus_delays_the_fill_by_one_transfer(self, hierarchy):
        a = hierarchy.data_access(0x800000, 0)
        b = hierarchy.data_access(0x900000, 0)
        occupancy = hierarchy.config.bus_cycles_per_transfer
        assert b.ready_at == a.ready_at + occupancy

    def test_miss_does_not_fetch_the_next_line(self, hierarchy):
        hierarchy.data_access(0x100000, 0)
        result = hierarchy.data_access(0x100040, 1_000)
        assert result.l2_miss
        assert hierarchy.bus.transfers == 2

    def test_sequential_sweep_misses_once_per_line(self, hierarchy):
        lines = 64
        for i in range(lines * 8):  # eight 8-byte words per 64-byte line
            hierarchy.data_access(0x100000 + 8 * i, 1_000 * i)
        assert hierarchy.l1d.misses == lines
        assert hierarchy.l2.misses == lines
        assert hierarchy.bus.transfers == lines

    def test_store_miss_allocates_the_line(self, hierarchy):
        store = hierarchy.store_access(0x200000, 0)
        assert store.l2_miss and hierarchy.bus.transfers == 1
        load = hierarchy.data_access(0x200008, 1_000)
        assert not load.l2_miss
        assert load.ready_at == 1_000 + hierarchy.config.l1d.latency
        assert hierarchy.l1d.hits == 1


class TestFetchPath:
    def test_instruction_fetch_uses_l1i(self, hierarchy):
        hierarchy.fetch_access(0x100, 0)
        result = hierarchy.fetch_access(0x104, 1_000)
        assert result.ready_at == 1_000 + hierarchy.config.l1i.latency
        assert hierarchy.l1i.hits == 1
        assert hierarchy.l1i.accesses == 2
        assert hierarchy.l1d.accesses == 0

    def test_fetch_and_data_tlbs_are_separate(self, hierarchy):
        hierarchy.fetch_access(0x100, 0)
        hierarchy.data_access(0x100, 10)
        # dTLB cold even though iTLB warm
        assert hierarchy.itlb.misses == 1
        assert hierarchy.dtlb.misses == 1 and hierarchy.dtlb.hits == 0


class TestStatistics:
    def test_reset_statistics(self, hierarchy):
        hierarchy.data_access(0x1000, 0)
        hierarchy.fetch_access(0x100, 0)
        hierarchy.reset_statistics()
        assert hierarchy.l1d.accesses == 0
        assert hierarchy.l1i.accesses == 0
        assert hierarchy.l2.accesses == 0
        assert hierarchy.dtlb.accesses == 0
