"""Switch-policy interface shared by both simulators.

The paper argues that SOE fairness can be handled at the *architectural*
level: the mechanism only needs to observe retirement, misses and time,
and to decide when a thread's turn ends. That observation/decision
surface is captured here as :class:`SwitchPolicy`, implemented by:

* :class:`NoFairnessPolicy` -- the baseline SOE scheme (``F = 0``):
  switch only on last-level cache misses (plus the engine-level
  maximum-cycles quota);
* :class:`TimeSharingPolicy` -- the Section 6 strawman: a fixed cycle
  quota per dispatch, OS-style time slicing;
* :class:`~repro.core.controller.FairnessController` -- the paper's
  mechanism (counters + Eq. 9 quotas + deficit counting);
* the comparison policies of the policy zoo
  (:mod:`repro.core.policies`): ICOUNT-style dispatch priority,
  LFOC-style cluster enforcement, and a NoC-style deficit-round-robin
  arbiter.

Both the segment-level engine (:mod:`repro.engine`) and the detailed
out-of-order core (:mod:`repro.cpu`) drive their policies through this
interface, which is what lets the same controller code run on either
substrate. Both skip the hooks a policy leaves at the default.
"""

from __future__ import annotations

import abc
import math
from typing import Any, Callable, Optional, Sequence

from repro.errors import ConfigurationError

__all__ = ["SwitchPolicy", "NoFairnessPolicy", "TimeSharingPolicy", "overridden_hook"]


class SwitchPolicy(abc.ABC):
    """Decision surface for when the active SOE thread must yield."""

    def on_run_start(self, thread_id: int, now: float) -> None:
        """Called when ``thread_id`` is dispatched (switched in)."""

    def instruction_budget(self, thread_id: int) -> float:
        """Instructions the thread may retire in this dispatch before a
        forced switch. ``math.inf`` disables instruction-quota switches."""
        return math.inf

    def cycle_budget(self, thread_id: int) -> float:
        """Cycles the thread may run in this dispatch before a forced
        switch. ``math.inf`` defers to the engine's maximum-cycles quota."""
        return math.inf

    def on_retired(self, thread_id: int, instructions: float, cycles: float) -> None:
        """Called as the active thread retires work."""

    def on_miss(
        self, thread_id: int, now: float, latency: Optional[float] = None
    ) -> None:
        """Called when a switch-causing long-latency event occurs.

        ``latency`` is the event's actual stall latency when the
        substrate knows it (variable-latency events, Section 6); None
        when only the configured constant applies.
        """

    def on_switch_out(self, thread_id: int, reason: str, now: float) -> None:
        """Called when the thread yields (``reason`` is one of
        ``"miss"``, ``"quota"``, ``"cycle_quota"``, ``"done"``)."""

    def next_boundary(self, now: float) -> float:
        """Absolute time of the next policy event (e.g. the ``Delta``
        sampling boundary); ``math.inf`` when the policy has none.

        The schedule may change only inside :meth:`on_boundary`, so a
        substrate reads it again only after boundaries fire.
        """
        return math.inf

    def on_boundary(self, now: float) -> None:
        """Called when simulation time reaches :meth:`next_boundary`."""

    def select_thread(self, ready: Sequence[int], now: float) -> Optional[int]:
        """Pick the next thread to dispatch from ``ready`` (non-empty,
        ascending thread ids).

        Return a member of ``ready`` to override the substrate's default
        least-recently-dispatched round robin, or ``None`` to defer to
        it. Substrates only consult this hook when a policy overrides
        it, so the default round-robin path stays bit-identical for
        policies that do not care about dispatch order.
        """
        return None


def overridden_hook(policy: SwitchPolicy, hook: str) -> Optional[Callable[..., Any]]:
    """``policy``'s bound ``hook``, or None when the policy keeps the
    :class:`SwitchPolicy` default (an ``inf`` answer or a no-op), which
    a substrate then skips instead of calling it on every event."""
    if getattr(type(policy), hook) is getattr(SwitchPolicy, hook):
        return None
    bound: Callable[..., Any] = getattr(policy, hook)
    return bound


class NoFairnessPolicy(SwitchPolicy):
    """Baseline SOE (``F = 0``): threads switch only on misses."""


class TimeSharingPolicy(SwitchPolicy):
    """OS-style time slicing: a fixed cycle quota per dispatch.

    The Section 6 discussion shows why this is a poor fairness tool for
    SOE: a small quota costs constant pipeline flushes, a large quota
    equalizes *time* rather than *slowdown*. The policy optionally
    keeps miss-triggered switches (the engine always switches on misses;
    this policy only adds the cycle quota on top).
    """

    def __init__(self, cycle_quota: float) -> None:
        if not (cycle_quota > 0):
            raise ConfigurationError("cycle_quota must be positive")
        self._quota = float(cycle_quota)
        self._used: dict[int, float] = {}

    @property
    def cycle_quota(self) -> float:
        return self._quota

    def on_run_start(self, thread_id: int, now: float) -> None:
        self._used[thread_id] = 0.0

    def cycle_budget(self, thread_id: int) -> float:
        return max(0.0, self._quota - self._used.get(thread_id, 0.0))

    def on_retired(self, thread_id: int, instructions: float, cycles: float) -> None:
        self._used[thread_id] = self._used.get(thread_id, 0.0) + cycles
