"""Job specs: what one service request asks the simulator to compute.

A job is one :func:`repro.experiments.runner.compute_pair` cell -- a
benchmark pair evaluated at a set of fairness levels under one
:class:`~repro.experiments.common.EvalConfig` -- plus service metadata
(the submitting tenant, an optional deadline). Specs are validated at
the HTTP boundary, so everything past admission operates on typed,
already-checked values.

Job identity is *content-addressed*: :func:`job_id` hashes the tenant,
the pair, every config field, and the simulator code version. Two
identical submissions are one job (idempotent POST), and the id doubles
as the journal key, so a restarted service recognizes every job it ever
accepted. The computation itself dedupes one level deeper through the
result cache, which ignores the tenant -- two tenants asking for the
same cell share the simulation but keep separate job records.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, fields, replace
from typing import Mapping, Optional

from repro.errors import ConfigurationError, WorkloadError
from repro.experiments.common import EvalConfig
from repro.workloads.pairs import BenchmarkPair
from repro.workloads.spec2000 import get_profile

__all__ = [
    "JOB_STATES",
    "Job",
    "JobSpec",
    "job_id",
    "parse_job_spec",
]

#: Every state a job record can be in. ``rejected`` and ``expired`` are
#: terminal without execution; ``cached`` is terminal via dedupe.
JOB_STATES = frozenset(
    (
        "queued",
        "dispatched",
        "completed",
        "failed",
        "cached",
        "expired",
        "rejected",
    )
)

_TENANT_RE = re.compile(r"^[A-Za-z0-9_-]{1,64}$")

#: Base configs selectable by the spec's ``scale`` field.
_SCALES = {
    "default": EvalConfig,
    "paper": EvalConfig.paper_scale,
    "quick": EvalConfig.quick,
}

#: EvalConfig fields a spec may override. ``fairness_levels`` arrives
#: as a JSON array; everything else is a scalar of the field's type.
_CONFIG_FIELDS = frozenset(field.name for field in fields(EvalConfig))


@dataclass(frozen=True)
class JobSpec:
    """One validated request: a (tenant, pair, config, deadline) tuple."""

    tenant: str
    pair: BenchmarkPair
    config: EvalConfig
    #: Seconds from acceptance to completion; propagates down to the
    #: supervisor's per-attempt timeout. None = no deadline.
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not _TENANT_RE.match(self.tenant):
            raise ConfigurationError(
                "tenant must be 1-64 characters of [A-Za-z0-9_-], "
                f"got {self.tenant!r}"
            )
        if self.deadline_s is not None and not (
            math.isfinite(self.deadline_s) and self.deadline_s > 0
        ):
            raise ConfigurationError(
                "deadline_s must be finite positive seconds"
            )
        for benchmark in (self.pair.first, self.pair.second):
            try:
                get_profile(benchmark)
            except WorkloadError as error:
                raise ConfigurationError(str(error)) from error

    def to_json(self) -> dict:
        """The spec as JSON-encodable primitives (journal/API echo).

        The shape round-trips through :func:`parse_job_spec` -- the
        restart path re-parses journaled specs through the same
        validator that admitted them.
        """
        config = {
            field.name: _jsonable_field(getattr(self.config, field.name))
            for field in fields(self.config)
        }
        config["policy_params"] = dict(self.config.policy_params)
        return {
            "tenant": self.tenant,
            "pair": self.pair.label,
            "scale": "default",
            "config": config,
            "deadline_s": self.deadline_s,
        }


def _jsonable_field(value: object) -> object:
    if isinstance(value, tuple):
        return [_jsonable_field(item) for item in value]
    return value


def job_id(spec: JobSpec, code_version: str) -> str:
    """Content address of one job under one simulator version."""
    payload = repr(
        (
            "repro-service-job",
            code_version,
            spec.tenant,
            spec.pair.first,
            spec.pair.second,
            tuple(
                (field.name, repr(getattr(spec.config, field.name)))
                for field in fields(spec.config)
            ),
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _require(value: object, kind: type, what: str) -> object:
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ConfigurationError(
            f"{what} must be a {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _parse_config(scale: str, overrides: Mapping) -> EvalConfig:
    if scale not in _SCALES:
        raise ConfigurationError(
            f"scale must be one of {sorted(_SCALES)}, got {scale!r}"
        )
    config = _SCALES[scale]()
    if not overrides:
        return config
    unknown = set(overrides) - _CONFIG_FIELDS
    if unknown:
        raise ConfigurationError(
            f"unknown config fields {sorted(unknown)}; "
            f"choose from {sorted(_CONFIG_FIELDS)}"
        )
    cleaned = dict(overrides)
    if "fairness_levels" in cleaned:
        levels = cleaned["fairness_levels"]
        if not isinstance(levels, (list, tuple)) or not all(
            isinstance(level, (int, float)) and not isinstance(level, bool)
            for level in levels
        ):
            raise ConfigurationError(
                "fairness_levels must be an array of numbers"
            )
        cleaned["fairness_levels"] = tuple(float(level) for level in levels)
    if "policy_params" in cleaned:
        params = cleaned["policy_params"]
        if not isinstance(params, Mapping):
            raise ConfigurationError(
                "policy_params must be an object of name -> number"
            )
        cleaned["policy_params"] = tuple(
            sorted((str(name), float(value)) for name, value in params.items())
        )
    try:
        return replace(config, **cleaned)
    except (TypeError, ValueError) as error:
        raise ConfigurationError(f"invalid config override: {error}") from error


def parse_job_spec(payload: object) -> JobSpec:
    """Validate one submission body into a :class:`JobSpec`.

    Raises :class:`~repro.errors.ConfigurationError` with a
    client-presentable message for anything malformed; nothing
    downstream of admission re-validates.
    """
    if not isinstance(payload, Mapping):
        raise ConfigurationError("job spec must be a JSON object")
    known = {"tenant", "pair", "scale", "config", "deadline_s"}
    unknown = set(payload) - known
    if unknown:
        raise ConfigurationError(
            f"unknown job spec fields {sorted(unknown)}; "
            f"choose from {sorted(known)}"
        )
    tenant = str(_require(payload.get("tenant"), str, "tenant"))
    pair_text = str(_require(payload.get("pair"), str, "pair"))
    first, sep, second = pair_text.partition(":")
    if not sep or not first or not second:
        raise ConfigurationError(
            f"pair must look like 'first:second', got {pair_text!r}"
        )
    scale = payload.get("scale", "quick")
    _require(scale, str, "scale")
    overrides = payload.get("config", {})
    if overrides is None:
        overrides = {}
    if not isinstance(overrides, Mapping):
        raise ConfigurationError("config must be a JSON object of overrides")
    deadline = payload.get("deadline_s")
    if deadline is not None:
        if isinstance(deadline, bool) or not isinstance(deadline, (int, float)):
            raise ConfigurationError("deadline_s must be a number of seconds")
        deadline = float(deadline)
    return JobSpec(
        tenant=tenant,
        pair=BenchmarkPair(first, second),
        config=_parse_config(str(scale), overrides),
        deadline_s=deadline,
    )


@dataclass
class Job:
    """One accepted job's live record (the service's unit of state)."""

    id: str
    spec: JobSpec
    state: str = "queued"
    #: Human-presentable annotation for the current state (failure
    #: reason, "result cache"/"journal" provenance of a cached result).
    detail: Optional[str] = None
    #: Execution attempts observed so far (retries increment this).
    attempts: int = 0
    #: The finished PairResult (completed/cached states only). Held
    #: in memory for serving; durability lives in the journal/cache.
    result: object = None
    #: Monotonic deadline for queued/dispatched jobs (None = none).
    expires_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.state not in JOB_STATES:
            raise ConfigurationError(
                f"unknown job state {self.state!r}; "
                f"choose from {sorted(JOB_STATES)}"
            )

    @property
    def terminal(self) -> bool:
        return self.state in (
            "completed",
            "failed",
            "cached",
            "expired",
            "rejected",
        )

    def to_json(self) -> dict:
        """Status-endpoint view (never includes the result payload)."""
        return {
            "job": self.id,
            "tenant": self.spec.tenant,
            "pair": self.spec.pair.label,
            "state": self.state,
            "detail": self.detail,
            "attempts": self.attempts,
            "terminal": self.terminal,
        }
