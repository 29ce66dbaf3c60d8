"""Determinism rules: RL001 (random), RL002 (wall clock), RL003 (set order).

These three rules protect the repo's headline guarantee — bit-identical
results for the same seed at any ``--jobs`` count, traced or untraced.
Each encodes one way that guarantee has been (or could be) silently
broken: ambient RNG state, wall-clock reads leaking into simulation
outputs, and iteration order of unordered containers reaching
simulation state or serialized output.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.registry import ModuleInfo, Rule, RuleMeta, register

__all__ = ["NoUnseededRandom", "NoWallClock", "NoOrderingHazard"]


class _SourceRule(Rule):
    """Reports the module scan's direct sources of one effect kind.

    Detection lives in :func:`repro.analysis.dataflow.scan_module`,
    which the whole-program summaries read too, so RL009 seeds taint
    from exactly the sources these rules report.
    """

    kind: str  #: the effect kind this rule polices

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        for node, message in module.sources().reports[self.kind]:
            yield self.finding(module, node, message)


@register
class NoUnseededRandom(_SourceRule):
    """RL001: only explicitly seeded RNG instances are allowed.

    Module-level ``random.*`` functions share one ambient, process-wide
    RNG whose state depends on import order and on every other caller —
    across pool workers it silently diverges. All randomness in the
    simulators must flow through a ``random.Random(seed)`` (or
    ``numpy.random.default_rng(seed)``) instance plumbed from the
    experiment config.
    """

    meta = RuleMeta(
        id="RL001",
        name="no-unseeded-random",
        rationale=(
            "The module-level random API is a process-global RNG; any use "
            "breaks bit-identical reproduction across job counts and "
            "platforms. Construct random.Random(seed) instances instead."
        ),
    )

    kind = "rng"


@register
class NoWallClock(_SourceRule):
    """RL002: no wall-clock reads outside telemetry timing paths.

    Simulated time is the only clock the simulators may observe. A
    wall-clock read feeding any result makes output depend on host
    speed and scheduling. Telemetry and the grid runner's profiling are
    the sanctioned exceptions (their numbers are *about* wall time and
    never feed back into results).
    """

    meta = RuleMeta(
        id="RL002",
        name="no-wallclock",
        rationale=(
            "Wall-clock reads outside telemetry make results depend on "
            "host speed; simulation code must only observe simulated "
            "cycles."
        ),
        exempt=(
            "src/repro/telemetry/",
            "src/repro/experiments/runner.py",
            # The supervisor's clocks bound task attempts (timeouts,
            # liveness polling); they never feed simulation results.
            "src/repro/experiments/supervisor.py",
            # Fault injection sleeps to simulate a hung worker.
            "src/repro/faults/",
            # The service's clocks bound job deadlines, retry backoff,
            # and drain waits; simulation results never depend on them.
            "src/repro/service/",
        ),
    )

    kind = "wallclock"


@register
class NoOrderingHazard(_SourceRule):
    """RL003: iteration over sets must be sorted.

    ``set``/``frozenset`` iteration order depends on insertion history
    and hash seeding of the value types; when such an iteration feeds
    simulation state or serialized output the run is no longer
    reproducible byte-for-byte. Iterating a *dict* is fine — Python
    dicts preserve insertion order — which is why this rule targets the
    set family only. Wrap the iterable in ``sorted(...)``.
    """

    meta = RuleMeta(
        id="RL003",
        name="no-ordering-hazard",
        rationale=(
            "Set iteration order is not stable across processes and "
            "platforms; simulation/serialization code must sort first. "
            "Scope: the simulation kernel (core, cpu, engine) plus the "
            "modules that serialize results."
        ),
        paths=(
            "src/repro/core/",
            "src/repro/cpu/",
            "src/repro/engine/",
            "src/repro/experiments/",
            "src/repro/workloads/",
        ),
    )

    kind = "set_iter"
