"""Tests for the machine configuration."""

import pytest

from repro.cpu.machine import CacheConfig, MachineConfig
from repro.errors import ConfigurationError


class TestMachineConfig:
    def test_paper_defaults(self):
        config = MachineConfig()
        assert config.memory_latency == 300
        assert config.drain_latency == 6
        assert config.max_cycles_quota == 50_000
        assert config.l2.size_bytes == 2 * 1024 * 1024

    def test_fetch_queue_covers_frontend_pipe(self):
        config = MachineConfig()
        assert config.fetch_queue_entries >= (
            config.fetch_width * config.frontend_latency
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fetch_width": 0},
            {"rob_entries": 0},
            {"memory_latency": -1},
            {"page_bytes": 1000},
            {"rename_width": 0},
            {"retire_width": 0},
            {"rs_entries": 0},
            {"load_buffer_entries": 0},
            {"store_buffer_entries": 0},
            {"fetch_queue_entries": 0},
            {"page_walk_latency": -1},
            {"page_bytes": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            MachineConfig(**kwargs)

    def test_accepts_zero_memory_latency(self):
        assert MachineConfig(memory_latency=0).memory_latency == 0

    @pytest.mark.parametrize(
        "geometry",
        [
            (32 * 1024, 0, 64, 3),   # associativity
            (32 * 1024, 8, 0, 3),    # line size
            (32 * 1024, 8, 64, -1),  # latency
        ],
    )
    def test_cache_config_rejects_bad_values(self, geometry):
        with pytest.raises(ConfigurationError):
            CacheConfig(*geometry)

    def test_cache_geometry_validated(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(l1d=CacheConfig(1000, 8, 64, 3))

    def test_immutable(self):
        config = MachineConfig()
        with pytest.raises(AttributeError):
            config.rob_entries = 128
