"""SOE run specs: one simulation of the segment engine as pure data.

The evaluation grid is thousands of independent (pair x fairness-level
x seed) simulations. The execution layer describes each one as a
self-contained :class:`SoeRunSpec` -- streams, policy parameters,
engine parameters and run limits -- and runs it on the exact
event-driven :class:`~repro.engine.soe.SoeEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.policies import PolicyConfig
from repro.core.policy import SwitchPolicy
from repro.engine.segments import SegmentStream
from repro.engine.soe import RunLimits, SoeParams
from repro.errors import ConfigurationError

__all__ = ["SoeRunSpec"]


@dataclass(frozen=True)
class SoeRunSpec:
    """Everything one SOE run needs, as pure data.

    ``policy`` selects a registered policy-zoo policy
    (:class:`~repro.core.policies.PolicyConfig`), or None for the
    unenforced baseline (miss-only switching). Specs carry parameters
    rather than live policy objects, so every run builds a fresh policy
    with :meth:`make_policy`.
    """

    streams: tuple[SegmentStream, ...]
    params: SoeParams = field(default_factory=SoeParams)
    limits: RunLimits = field(default_factory=RunLimits)
    policy: Optional[PolicyConfig] = None

    def __post_init__(self) -> None:
        if len(self.streams) < 2:
            raise ConfigurationError("an SOE run spec needs at least two threads")

    @property
    def num_threads(self) -> int:
        return len(self.streams)

    def make_policy(self) -> Optional[SwitchPolicy]:
        """A fresh scalar policy for this spec (None = baseline)."""
        if self.policy is None:
            return None
        return self.policy.make(self.num_threads)
