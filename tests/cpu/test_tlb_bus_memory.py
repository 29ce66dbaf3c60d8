"""Tests for the TLBs, the pipelined bus and the memory model."""

import pytest

from repro.cpu.bus import PipelinedBus
from repro.cpu.tlb import Tlb
from repro.errors import ConfigurationError


class TestTlb:
    def test_miss_then_hit_same_page(self):
        tlb = Tlb(entries=4, page_bytes=4096)
        assert not tlb.access(0x1000)
        assert tlb.access(0x1FFF)  # same page

    def test_distinct_pages(self):
        tlb = Tlb(entries=4, page_bytes=4096)
        tlb.access(0x0000)
        assert not tlb.access(0x1000)

    def test_lru_capacity(self):
        tlb = Tlb(entries=2, page_bytes=4096)
        tlb.access(0x0000)
        tlb.access(0x1000)
        tlb.access(0x2000)  # evicts page 0
        assert not tlb.access(0x0000)

    def test_statistics(self):
        tlb = Tlb(entries=4, page_bytes=4096)
        tlb.access(0)
        tlb.access(0)
        assert tlb.hits == 1 and tlb.misses == 1
        tlb.reset_statistics()
        assert tlb.accesses == 0

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            Tlb(entries=0, page_bytes=4096)
        with pytest.raises(ConfigurationError):
            Tlb(entries=4, page_bytes=1000)  # not a power of two


class TestPipelinedBus:
    def test_idle_bus_grants_immediately(self):
        bus = PipelinedBus(occupancy=4)
        assert bus.request(10) == 10

    def test_back_to_back_transfers_queue_by_occupancy(self):
        bus = PipelinedBus(occupancy=4)
        assert bus.request(0) == 0
        assert bus.request(0) == 4
        assert bus.request(0) == 8

    def test_gap_larger_than_occupancy_resets(self):
        bus = PipelinedBus(occupancy=4)
        bus.request(0)
        assert bus.request(100) == 100

    def test_transfer_count(self):
        bus = PipelinedBus(occupancy=4)
        bus.request(0)
        bus.request(1)
        assert bus.transfers == 2

    def test_rejects_negative_occupancy(self):
        with pytest.raises(ConfigurationError):
            PipelinedBus(-1)
