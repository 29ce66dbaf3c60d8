"""Per-thread hardware counters (paper Section 3.1).

The fairness mechanism needs three counters per thread, sampled every
``Delta`` cycles:

* ``Instrs_j``  -- instructions retired from thread *j*;
* ``Cycles_j``  -- cycles the thread was actually running (from the
  retirement of its first instruction after switch-in until it is
  switched out; switch overhead is excluded);
* ``Misses_j``  -- last-level cache misses that caused a thread switch
  (only the first miss of an overlapped cluster is counted).

From a sample the paper derives ``IPM`` (Eq. 11), ``CPM`` (Eq. 12) and
the estimated single-thread IPC (Eq. 13). The ``max(Misses, 1)`` in
Eqs. 11-12 covers the rare window in which a thread missed zero times.
:class:`~repro.core.deficit.DeficitPolicy` accumulates the counters.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["CounterSample"]


@dataclass(frozen=True)
class CounterSample:
    """An immutable snapshot of one thread's counters over one window."""

    instructions: float
    cycles: float
    misses: int

    def __post_init__(self) -> None:
        if self.instructions < 0 or self.cycles < 0 or self.misses < 0:
            raise ConfigurationError("counter values cannot be negative")

    @property
    def ipm(self) -> float:
        """Eq. 11: ``IPM = Instrs / max(Misses, 1)``."""
        return self.instructions / max(self.misses, 1)

    @property
    def cpm(self) -> float:
        """Eq. 12: ``CPM = Cycles / max(Misses, 1)``."""
        return self.cycles / max(self.misses, 1)

    def estimated_single_thread_ipc(self, miss_lat: float) -> float:
        """Eq. 13: estimated IPC of this thread had it run alone.

        Returns 0.0 for an empty sample (thread never ran in the
        window); callers are expected to fall back to a previous
        estimate in that case.
        """
        # repro-lint: disable=RL004 - exact zero means "never retired"
        if self.instructions == 0:
            return 0.0
        return self.ipm / (self.cpm + miss_lat)

    @property
    def is_empty(self) -> bool:
        """True when the thread retired nothing during the window."""
        # repro-lint: disable=RL004 - exact zero means "never retired"
        return self.instructions == 0
