"""Machine configuration (paper Table 3 / Section 4.1).

The paper derives its processor from Intel's P6 microarchitecture with
"structure sizes slightly increased to reflect a future version" of the
then-current core, a 300-cycle memory (75 ns at 4 GHz), and ~25-cycle
thread switches. The defaults below follow that description.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError

__all__ = ["CacheConfig", "MachineConfig"]


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    size_bytes: int
    associativity: int
    line_bytes: int
    latency: int

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.associativity <= 0 or self.line_bytes <= 0:
            raise ConfigurationError("cache geometry must be positive")
        if self.size_bytes % (self.associativity * self.line_bytes) != 0:
            raise ConfigurationError(
                "cache size must be a whole number of sets "
                f"(size={self.size_bytes}, assoc={self.associativity}, "
                f"line={self.line_bytes})"
            )
        if self.latency < 0:
            raise ConfigurationError("cache latency must be non-negative")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.associativity * self.line_bytes)


@dataclass(frozen=True)
class MachineConfig:
    """Full core + memory-hierarchy configuration."""

    # Pipeline widths and structure sizes
    fetch_width: int = 4
    rename_width: int = 4
    retire_width: int = 4
    rob_entries: int = 96
    rs_entries: int = 32
    load_buffer_entries: int = 32
    store_buffer_entries: int = 20
    #: must cover fetch_width * frontend_latency or the frontend pipe
    #: itself becomes the bandwidth limit
    fetch_queue_entries: int = 64
    #: cycles from fetch until a uop is visible to rename (frontend depth)
    frontend_latency: int = 12

    # Execution resources: issue slots per class per cycle
    alu_ports: int = 3
    mul_ports: int = 1
    fp_ports: int = 1
    load_ports: int = 1
    store_ports: int = 1

    # Execution latencies (cycles)
    alu_latency: int = 1
    mul_latency: int = 3
    fp_latency: int = 4

    # Memory hierarchy
    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * 1024, 8, 64, 1)
    )
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * 1024, 8, 64, 3)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(2 * 1024 * 1024, 8, 64, 12)
    )
    memory_latency: int = 300
    bus_cycles_per_transfer: int = 4

    # TLBs
    itlb_entries: int = 128
    dtlb_entries: int = 128
    page_bytes: int = 4096
    page_walk_latency: int = 30

    # Branch prediction
    predictor_history_bits: int = 12
    predictor_table_entries: int = 4096
    btb_entries: int = 2048
    branch_redirect_penalty: int = 12

    # SOE
    drain_latency: int = 6
    max_cycles_quota: int = 50_000

    def __post_init__(self) -> None:
        for name in (
            "fetch_width",
            "rename_width",
            "retire_width",
            "rob_entries",
            "rs_entries",
            "load_buffer_entries",
            "store_buffer_entries",
            "fetch_queue_entries",
        ):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.memory_latency < 0 or self.page_walk_latency < 0:
            raise ConfigurationError("latencies must be non-negative")
        if self.page_bytes <= 0 or self.page_bytes & (self.page_bytes - 1):
            raise ConfigurationError("page size must be a positive power of two")
