"""Memory-hierarchy composition: L1I / L1D -> unified L2 -> bus -> memory.

Main memory is the paper's fixed-latency model (Section 4.1: a constant
300 cycles, 75 ns at 4 GHz): a line fill is ready ``memory_latency``
cycles after it wins the bus.

Answers pure timing queries for the pipeline: "an access to ``address``
starts now; when is the data ready, and did it miss the L2?" Outstanding
line fills are tracked so clustered misses to the same line merge
(MSHR behaviour) -- this is what lets the out-of-order core overlap
misses, the effect the paper's footnote 5 calls the prefetching effect
of its triggering scheme.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.cpu.bus import PipelinedBus
from repro.cpu.caches import Cache
from repro.cpu.machine import MachineConfig
from repro.cpu.tlb import Tlb

__all__ = ["AccessResult", "MemoryHierarchy"]


class AccessResult(NamedTuple):
    """Timing outcome of one cache access (an immutable record, built
    once per cache access, so a tuple rather than a frozen dataclass)."""

    ready_at: int
    #: True when the access needed a memory fill, its own or an
    #: outstanding one it merged into (the SOE switch event)
    l2_miss: bool


#: Builds an :class:`AccessResult` without the Python-level ``__new__``
#: that ``NamedTuple`` generates: ``_result(AccessResult, (ready_at,
#: l2_miss))`` is the same type and value at a fraction of the cost.
_result = tuple.__new__


class MemoryHierarchy:
    """Shared cache hierarchy for all SOE threads."""

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.l1i = Cache(config.l1i, "L1I")
        self.l1d = Cache(config.l1d, "L1D")
        self.l2 = Cache(config.l2, "L2")
        self.itlb = Tlb(config.itlb_entries, config.page_bytes, "iTLB")
        self.dtlb = Tlb(config.dtlb_entries, config.page_bytes, "dTLB")
        self.bus = PipelinedBus(config.bus_cycles_per_transfer)
        #: line number -> fill-complete time, for outstanding fills
        self._inflight: dict[int, int] = {}
        # Invariant config scalars, hoisted out of the per-access path.
        self._line_bytes = config.l2.line_bytes
        self._l2_latency = config.l2.latency
        self._page_walk_latency = config.page_walk_latency
        self._memory_latency = config.memory_latency

    # ------------------------------------------------------------------
    def _memory_fill(self, line: int, start: int, now: int) -> int:
        """Schedule a memory fill of ``line``; returns its ready time."""
        ready = self.bus.request(start) + self._memory_latency
        self._inflight[line] = ready
        if len(self._inflight) > 256:
            self._inflight = {
                l: t for l, t in self._inflight.items() if t > now
            }
        return ready

    def _access(
        self, l1: Cache, tlb: Tlb, address: int, now: int, is_write: bool = False
    ) -> AccessResult:
        start = now if tlb.access(address) else now + self._page_walk_latency
        after_l1 = start + l1.latency
        # A tag hit on a line whose fill is still outstanding must wait
        # for the fill (MSHR merge): the data is not there yet.
        line = address // self._line_bytes
        outstanding = self._inflight.get(line)
        if outstanding is not None and outstanding > now:
            l1.access(address, is_write)
            return _result(AccessResult, (max(outstanding, after_l1), True))
        if l1.access(address, is_write):
            return _result(AccessResult, (after_l1, False))
        # An L1 dirty eviction writes its victim back into the L2
        # (on-chip, no bus traffic).
        if l1.last_eviction_was_dirty and l1.last_victim_line is not None:
            victim_address = l1.last_victim_line * l1.config.line_bytes
            self.l2.access(victim_address, is_write=True)
            if self.l2.last_eviction_was_dirty:
                self.bus.request(now)
        if self.l2.access(address, is_write):
            return _result(AccessResult, (after_l1 + self._l2_latency, False))
        # An L2 dirty eviction goes to memory over the bus.
        if self.l2.last_eviction_was_dirty:
            self.bus.request(now)
        after_l2 = after_l1 + self._l2_latency
        ready = self._memory_fill(line, after_l2, now)
        return _result(AccessResult, (max(ready, after_l2), True))

    # ------------------------------------------------------------------
    def fetch_access(self, pc: int, now: int) -> AccessResult:
        """Instruction fetch for the line containing ``pc``."""
        return self._access(self.l1i, self.itlb, pc, now)

    def data_access(self, address: int, now: int) -> AccessResult:
        """Data read (the load path; the SOE trigger rides on this)."""
        return self._access(self.l1d, self.dtlb, address, now)

    def store_access(self, address: int, now: int) -> AccessResult:
        """Senior-store drain: write-allocate, marks the line dirty,
        never stalls retirement."""
        return self._access(self.l1d, self.dtlb, address, now, is_write=True)

    # ------------------------------------------------------------------
    def reset_statistics(self) -> None:
        """Clear counters after warmup (contents are kept warm)."""
        for cache in (self.l1i, self.l1d, self.l2):
            cache.reset_statistics()
        for tlb in (self.itlb, self.dtlb):
            tlb.reset_statistics()
