"""Set-associative LRU caches (L1I, L1D, unified L2).

Purely a tag store: the simulator models hit/miss timing, not data.
Caches are shared between SOE threads and are *not* flushed on thread
switches (Section 4.1) -- the address streams of the two threads simply
compete for the same sets, which is where cache-sharing interference
comes from in the detailed model.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.cpu.machine import CacheConfig
from repro.errors import ConfigurationError

__all__ = ["Cache"]


class Cache:
    """One cache level with true-LRU replacement and write-back state.

    Each resident line carries a dirty bit; :meth:`access` with
    ``is_write=True`` marks the line dirty, and a miss that evicts a
    dirty victim reports it so the hierarchy can charge the write-back
    bus traffic.
    """

    __slots__ = (
        "config", "name", "_sets", "hits", "misses", "writebacks",
        "latency", "_line_bytes", "_num_sets", "_associativity",
        "last_eviction_was_dirty", "last_victim_line",
    )

    def __init__(self, config: CacheConfig, name: str = "") -> None:
        self.config = config
        self.name = name
        # One OrderedDict per set: tag -> dirty flag, most recent last.
        self._sets: list[OrderedDict] = [
            OrderedDict() for _ in range(config.num_sets)
        ]
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
        #: hit latency in cycles (the hierarchy's per-access read)
        self.latency = config.latency
        # Geometry scalars, hoisted out of the per-access path.
        self._line_bytes = config.line_bytes
        self._num_sets = config.num_sets
        self._associativity = config.associativity
        #: Set by the most recent :meth:`access`; True when it evicted a
        #: dirty line (write-back traffic).
        self.last_eviction_was_dirty = False
        #: Line number of the most recent eviction victim (None if the
        #: last access evicted nothing).
        self.last_victim_line: "int | None" = None

    def _locate(self, address: int) -> tuple[int, int]:
        if address < 0:
            raise ConfigurationError("addresses must be non-negative")
        line = address // self._line_bytes
        return line % self._num_sets, line // self._num_sets

    def access(self, address: int, is_write: bool = False) -> bool:
        """Access and allocate on miss: returns True on hit.

        The miss path inserts the line immediately (fill timing is the
        memory hierarchy's business, not the tag store's). Use
        :attr:`last_eviction_was_dirty` to learn whether the allocation
        displaced a dirty victim.
        """
        if address < 0:
            raise ConfigurationError("addresses must be non-negative")
        num_sets = self._num_sets
        line = address // self._line_bytes
        set_index = line % num_sets
        tag = line // num_sets
        cache_set = self._sets[set_index]
        self.last_eviction_was_dirty = False
        self.last_victim_line = None
        if tag in cache_set:
            cache_set.move_to_end(tag)
            if is_write:
                cache_set[tag] = True
            self.hits += 1
            return True
        self.misses += 1
        cache_set[tag] = is_write
        if len(cache_set) > self._associativity:
            victim_tag, dirty = cache_set.popitem(last=False)  # evict LRU
            self.last_victim_line = victim_tag * num_sets + set_index
            if dirty:
                self.writebacks += 1
                self.last_eviction_was_dirty = True
        return False

    def contains(self, address: int) -> bool:
        """Non-destructive membership check (no LRU update)."""
        set_index, tag = self._locate(address)
        return tag in self._sets[set_index]

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def reset_statistics(self) -> None:
        """Clear counters (used after cache warmup), keep contents."""
        self.hits = 0
        self.misses = 0
