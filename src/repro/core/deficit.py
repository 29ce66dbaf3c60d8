"""Deficit counters (paper Section 3.2), with the Section 3.1 counters.

Simply forcing a switch every ``IPSw_j`` instructions would undershoot
the intended *average* instructions per switch, because threads are also
switched out by cache misses before their quota is used up. The paper
borrows the Deficit-Round-Robin idea from network scheduling: the unused
part of a quota (the *deficit*) is carried over and added to the next
grant, so the long-run average instructions per switch converges to
``IPSw_j``.

Protocol (as in the paper):

* the counter starts at 0;
* on switch-in it is **incremented by** ``IPSw_j`` (not reset to it);
* each retired instruction decrements it;
* the thread is switched out when it reaches 0 -- or earlier, on a miss,
  in which case the remainder is the carried-over deficit.

An optional cap bounds the accumulated deficit; the paper uses no cap
(``cap=None``), and the ablation experiments explore the knob.

:class:`DeficitPolicy` keeps the deficits, the quotas and the three
hardware counters of :mod:`repro.core.counters` as flat per-thread
lists, and its per-event hooks are straight-line code: the substrates
call them on every dispatch, retirement step and miss. Subclasses set
only the quotas (the controller and LFOC in ``on_boundary``; DRR a
fixed quantum with no ``Delta`` schedule).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.core.counters import CounterSample
from repro.core.policy import SwitchPolicy
from repro.errors import ConfigurationError

__all__ = ["DeficitPolicy"]

_INF = math.inf


class DeficitPolicy(SwitchPolicy):
    """Per-thread counters, deficit counters and quotas.

    ``quota`` is every thread's initial grant per dispatch (``inf``:
    no forced switches until a subclass sets finite quotas).
    ``sample_period`` is ``Delta``; ``inf`` means the policy has no
    sampling boundary.
    """

    def __init__(
        self,
        num_threads: int,
        *,
        quota: float = _INF,
        sample_period: float = _INF,
        cap: Optional[float] = None,
    ) -> None:
        if num_threads < 1:
            raise ConfigurationError("need at least one thread")
        if not quota > 0:
            raise ConfigurationError(f"quota must be positive, got {quota}")
        if not sample_period > 0:
            raise ConfigurationError(
                f"sample_period must be positive, got {sample_period}"
            )
        if cap is not None and not 0 < cap < _INF:
            raise ConfigurationError(
                f"deficit cap must be finite and positive, or None; got {cap}"
            )
        self._instructions = [0.0] * num_threads
        self._cycles = [0.0] * num_threads
        self._misses = [0] * num_threads
        self._deficits = [0.0] * num_threads
        self._quotas = [quota] * num_threads
        self._cap = _INF if cap is None else cap
        self._sample_period = sample_period
        self._next_boundary = sample_period

    # ------------------------------------------------------------------
    # Introspection (used by recorders, tests and experiments)
    # ------------------------------------------------------------------
    @property
    def num_threads(self) -> int:
        return len(self._deficits)

    @property
    def quotas(self) -> list[float]:
        """The per-dispatch quotas currently in force."""
        return list(self._quotas)

    def deficit_remaining(self, thread_id: int) -> float:
        """Instructions the thread may still retire before a forced switch."""
        return self._deficits[thread_id]

    def sample_and_reset(self, now: float) -> list[CounterSample]:
        """Close the ``Delta`` window that ends at ``now``.

        Returns each thread's counters over the window, clears them for
        the next one, and moves the schedule past ``now``.
        """
        n = len(self._deficits)
        samples = [
            CounterSample(instructions, cycles, misses)
            for instructions, cycles, misses in zip(
                self._instructions, self._cycles, self._misses
            )
        ]
        self._instructions = [0.0] * n
        self._cycles = [0.0] * n
        self._misses = [0] * n
        while self._next_boundary <= now:
            self._next_boundary += self._sample_period
        return samples

    # ------------------------------------------------------------------
    # SwitchPolicy interface: one straight-line body per event
    # ------------------------------------------------------------------
    def on_run_start(self, thread_id: int, now: float) -> None:
        """Grant the thread's quota at switch-in.

        An infinite quota means "no forced switches this window"; any
        leftover from such a window is meaningless, so a later finite
        grant starts from zero rather than from infinity.
        """
        quota = self._quotas[thread_id]
        if quota < 0:
            raise ConfigurationError("quota must be non-negative")
        # repro-lint: disable=RL004 - inf is the exact "no quota" sentinel
        if quota == _INF:
            self._deficits[thread_id] = _INF
            return
        value = self._deficits[thread_id]
        if value == _INF:
            value = 0.0
        value += quota
        if self._cap < value:
            value = self._cap
        self._deficits[thread_id] = value

    def instruction_budget(self, thread_id: int) -> float:
        return self._deficits[thread_id]

    def on_retired(self, thread_id: int, instructions: float, cycles: float) -> None:
        """Count retired work and consume it from the deficit.

        The deficit is clamped at 0: a slight overshoot (the simulators
        retire in fractional chunks) never turns into extra credit.
        """
        if not (0.0 <= instructions < _INF and 0.0 <= cycles < _INF):
            if instructions < 0 or cycles < 0:
                raise ConfigurationError("cannot retire negative work")
            raise ConfigurationError("retired work must be finite")
        self._instructions[thread_id] += instructions
        self._cycles[thread_id] += cycles
        value = self._deficits[thread_id]
        if value != _INF:
            value -= instructions
            self._deficits[thread_id] = value if value > 0.0 else 0.0

    def on_miss(
        self, thread_id: int, now: float, latency: Optional[float] = None
    ) -> None:
        self._misses[thread_id] += 1

    def next_boundary(self, now: float) -> float:
        return self._next_boundary
