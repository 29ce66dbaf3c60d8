"""The policy zoo: a registry of named, parameterized switch policies.

The paper evaluates one mechanism (Eq. 9 quotas + deficit counters)
against an unenforced baseline and a time-sharing strawman. This module
turns "which fairness policy runs" into data so alternative mechanisms
are comparable on the same grid: each policy registers a
:class:`PolicySpec` (name, citation, parameter schema, factory) and
experiments select one with a :class:`PolicyConfig`
(name + parameter overrides), which the execution layer threads through
run specs, cache keys and checkpoints.

Built-in policies
-----------------
``none``
    Unenforced SOE baseline: switch only on misses (``F = 0``).
``fairness``
    The paper's mechanism: counters + Eq. 9 quotas + deficit counters.
``rr-timeshare``
    The Section 6 strawman: a fixed cycle quota per dispatch.
``icount``
    ICOUNT-style dispatch priority (:mod:`repro.core.icount`).
``lfoc-cluster``
    LFOC-style hungry/light clustering (:mod:`repro.core.lfoc`).
``drr-arbiter``
    NoC-style deficit round robin (:mod:`repro.core.drr`).

Discoverable from the command line via ``python -m repro policies``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.core.controller import FairnessController, FairnessParams
from repro.core.drr import DEFAULT_QUANTUM, DrrArbiterPolicy
from repro.core.icount import IcountPolicy
from repro.core.lfoc import DEFAULT_IPM_THRESHOLD, LfocClusterPolicy
from repro.core.policy import SwitchPolicy, TimeSharingPolicy
from repro.errors import ConfigurationError

__all__ = [
    "PolicyParam",
    "PolicySpec",
    "PolicyConfig",
    "register_policy",
    "get_policy",
    "policy_names",
    "render_policy_table",
]


@dataclass(frozen=True)
class PolicyParam:
    """One tunable knob in a policy's parameter schema."""

    name: str
    default: float
    doc: str


@dataclass(frozen=True)
class PolicySpec:
    """A registered policy: identity, citation, schema and factory.

    ``factory(num_threads, config)`` builds a fresh
    :class:`~repro.core.policy.SwitchPolicy` per run (None for the
    unenforced baseline).
    """

    name: str
    title: str
    reference: str
    params: tuple[PolicyParam, ...]
    factory: Callable[[int, "PolicyConfig"], Optional[SwitchPolicy]]

    def param_default(self, name: str) -> float:
        for param in self.params:
            if param.name == name:
                return param.default
        raise ConfigurationError(
            f"policy {self.name!r} has no parameter {name!r}; "
            f"schema: {[p.name for p in self.params] or '(none)'}"
        )


_REGISTRY: Dict[str, PolicySpec] = {}


def register_policy(spec: PolicySpec) -> PolicySpec:
    """Add a policy to the registry (names must be unique)."""
    if spec.name in _REGISTRY:
        raise ConfigurationError(f"policy {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_policy(name: str) -> PolicySpec:
    """Look up a registered policy by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown policy {name!r}; registered policies: "
            f"{', '.join(policy_names())}"
        ) from None


def policy_names() -> tuple[str, ...]:
    """All registered policy names, in registration order."""
    return tuple(_REGISTRY)


@dataclass(frozen=True)
class PolicyConfig:
    """A policy selection: registry name + per-run parameters.

    ``level`` is the enforcement level -- the fairness target ``F`` for
    level-aware policies (``fairness``, ``lfoc-cluster``); level-free
    policies (``icount``, ``drr-arbiter``, ``rr-timeshare``) ignore it.
    ``params`` overrides entries of the policy's parameter schema as
    sorted ``(name, value)`` pairs (a tuple so the config stays hashable
    for cache keys and checkpoint fingerprints).
    """

    name: str
    level: float = 1.0
    miss_lat: float = 300.0
    sample_period: float = 250_000.0
    params: tuple[tuple[str, float], ...] = field(default=())

    def __post_init__(self) -> None:
        spec = get_policy(self.name)  # raises for unknown names
        if not 0.0 <= self.level <= 1.0:
            raise ConfigurationError(
                f"policy level must be in [0, 1], got {self.level}"
            )
        if not (math.isfinite(self.miss_lat) and math.isfinite(self.sample_period)):
            raise ConfigurationError("miss_lat and sample_period must be finite")
        if self.miss_lat < 0:
            raise ConfigurationError("miss_lat must be non-negative")
        if self.sample_period <= 0:
            raise ConfigurationError("sample_period must be positive")
        for name, _value in self.params:
            spec.param_default(name)  # raises for unknown parameters
        names = [name for name, _ in self.params]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"duplicate policy parameter overrides: {names}"
            )
        if sorted(names) != names:
            # Canonical order keeps equal configs equal (cache keys).
            object.__setattr__(self, "params", tuple(sorted(self.params)))

    @property
    def spec(self) -> PolicySpec:
        return get_policy(self.name)

    def param(self, name: str) -> float:
        """A parameter's effective value (override or schema default)."""
        for key, value in self.params:
            if key == name:
                return value
        return self.spec.param_default(name)

    def make(self, num_threads: int) -> Optional[SwitchPolicy]:
        """Build a fresh policy instance for one run (None = baseline)."""
        return self.spec.factory(num_threads, self)


# ----------------------------------------------------------------------
# Built-in policies
# ----------------------------------------------------------------------
def _make_none(num_threads: int, config: PolicyConfig) -> Optional[SwitchPolicy]:
    return None


def _make_fairness(num_threads: int, config: PolicyConfig) -> Optional[SwitchPolicy]:
    return FairnessController(
        num_threads,
        FairnessParams(
            fairness_target=config.level,
            miss_lat=config.miss_lat,
            sample_period=config.sample_period,
        ),
    )


def _make_rr_timeshare(
    num_threads: int, config: PolicyConfig
) -> Optional[SwitchPolicy]:
    return TimeSharingPolicy(cycle_quota=config.param("cycle_quota"))


def _make_icount(num_threads: int, config: PolicyConfig) -> Optional[SwitchPolicy]:
    return IcountPolicy(num_threads)


def _make_lfoc(num_threads: int, config: PolicyConfig) -> Optional[SwitchPolicy]:
    return LfocClusterPolicy(
        num_threads,
        fairness_target=config.level,
        miss_lat=config.miss_lat,
        sample_period=config.sample_period,
        ipm_threshold=config.param("ipm_threshold"),
    )


def _make_drr(num_threads: int, config: PolicyConfig) -> Optional[SwitchPolicy]:
    return DrrArbiterPolicy(num_threads, quantum=config.param("quantum"))


register_policy(
    PolicySpec(
        name="none",
        title="unenforced SOE baseline (switch on miss only)",
        reference="paper Section 2 (F = 0)",
        params=(),
        factory=_make_none,
    )
)
register_policy(
    PolicySpec(
        name="fairness",
        title="paper mechanism: Eq. 9 quotas + deficit counters",
        reference="paper Sections 2.3, 3",
        params=(),
        factory=_make_fairness,
    )
)
register_policy(
    PolicySpec(
        name="rr-timeshare",
        title="round-robin time sharing (fixed cycle quota)",
        reference="paper Section 6 strawman",
        params=(
            PolicyParam(
                "cycle_quota",
                400.0,
                "cycles a thread may run per dispatch",
            ),
        ),
        factory=_make_rr_timeshare,
    )
)
register_policy(
    PolicySpec(
        name="icount",
        title="ICOUNT-style dispatch priority (fewest retired first)",
        reference="Tullsen et al., ISCA 1996",
        params=(),
        factory=_make_icount,
    )
)
register_policy(
    PolicySpec(
        name="lfoc-cluster",
        title="LFOC-style hungry/light clustering with per-cluster quotas",
        reference="Garcia-Garcia et al., LFOC/LFOC+",
        params=(
            PolicyParam(
                "ipm_threshold",
                DEFAULT_IPM_THRESHOLD,
                "IPM at or below which a thread is cache-hungry",
            ),
        ),
        factory=_make_lfoc,
    )
)
register_policy(
    PolicySpec(
        name="drr-arbiter",
        title="NoC-style deficit round robin over switch grants",
        reference="Shreedhar & Varghese, SIGCOMM 1995; Wang et al., NoC",
        params=(
            PolicyParam(
                "quantum",
                DEFAULT_QUANTUM,
                "instructions granted per dispatch",
            ),
        ),
        factory=_make_drr,
    )
)


def render_policy_table() -> str:
    """The ``python -m repro policies`` listing."""
    lines = ["Registered switch policies", ""]
    header = f"{'name':14} {'title':52} reference"
    lines.append(header)
    lines.append("-" * len(header))
    for name in policy_names():
        spec = get_policy(name)
        lines.append(f"{spec.name:14} {spec.title:52} {spec.reference}")
        for param in spec.params:
            lines.append(
                f"{'':14}   - {param.name} = {param.default:g} ({param.doc})"
            )
    return "\n".join(lines)
