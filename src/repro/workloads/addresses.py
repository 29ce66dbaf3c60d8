"""Address-pattern generators for the detailed-core traces.

Two patterns cover what the timing model cares about:

* :class:`HotSetAccessor` -- accesses confined to a small working set
  that fits in the L1/L2, producing cache hits (the "between misses"
  part of the paper's program model);
* :class:`StreamingAccessor` -- a linear walk over a region much larger
  than the L2, so every new line misses to memory (the last-level
  misses that delimit segments).
"""

from __future__ import annotations

import random

from repro.errors import ConfigurationError

__all__ = ["HotSetAccessor", "StreamingAccessor"]


class HotSetAccessor:
    """Uniform random accesses within a resident working set.

    Each draw is ``rng.randrange(slots)``, inlined: the same rejection
    loop over ``rng.getrandbits`` that :class:`random.Random` runs for
    it (CPython 3.10 to 3.13), so the address stream is unchanged but
    skips two Python calls per address.
    """

    def __init__(
        self,
        base: int,
        size_bytes: int,
        rng: random.Random,
        granule: int = 8,
    ) -> None:
        if size_bytes <= 0 or granule <= 0:
            raise ConfigurationError("working set and granule must be positive")
        if base < 0:
            raise ConfigurationError("base address must be non-negative")
        self.base = base
        self.size_bytes = size_bytes
        self.granule = granule
        self._getrandbits = rng.getrandbits
        self._slots = max(1, size_bytes // granule)
        self._bits = self._slots.bit_length()

    def next_address(self) -> int:
        slots = self._slots
        bits = self._bits
        getrandbits = self._getrandbits
        slot = getrandbits(bits)
        while slot >= slots:
            slot = getrandbits(bits)
        return self.base + slot * self.granule


class StreamingAccessor:
    """Sequential walk over a huge region; wraps at the region end.

    With a stride of one cache line over a region several times the L2
    capacity, every access after warmup touches a line that has been
    evicted since its last use -- a guaranteed last-level miss.
    """

    def __init__(self, base: int, region_bytes: int, stride: int = 64) -> None:
        if region_bytes <= 0 or stride <= 0:
            raise ConfigurationError("region and stride must be positive")
        if base < 0:
            raise ConfigurationError("base address must be non-negative")
        self.base = base
        self.region_bytes = region_bytes
        self.stride = stride
        self._offset = 0

    def next_address(self) -> int:
        address = self.base + self._offset
        self._offset = (self._offset + self.stride) % self.region_bytes
        return address
