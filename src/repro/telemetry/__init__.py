"""Structured run telemetry: tracing + profiling for both substrates.

The paper's mechanism is driven entirely by periodically sampled
hardware counters, yet without this package those internals were only
visible post-hoc (``FairnessController.history``, the Figure-5
recorder). Telemetry makes a run observable while preserving results
exactly:

* **Events** (:mod:`.events`) -- typed, schema-validated JSONL lines in
  three categories: ``controller`` (Delta-boundary counter samples,
  IPC_ST estimates, quotas, deficits), ``switch`` (thread switches with
  cause, segment boundaries, idle stalls, from either substrate), and
  ``runner`` (grid task start/stop, cache hits/misses, worker ids).
* **Sinks** (:mod:`.sinks`) -- ``NullSink`` (zero-cost default),
  ``RingBufferSink`` (in-memory flight recorder), ``JsonlSink``
  (fork-safe streaming file).
* **Profiling** (:mod:`.profile`) -- per-process counters merged across
  multiprocessing workers into a per-run manifest (config hash, seed,
  events/sec, simulated-cycles/sec, peak RSS).
* **Summaries** (:mod:`.summary`) -- ``repro trace-summary PATH``
  renders switch-cause histograms and fairness-convergence timelines
  from a trace file.

Tracing is *observation only*: with any sink installed, simulation
results are bit-identical to an untraced run (pinned by the tier-1
path-identity oracle, ``tests/integration/test_path_identity.py``).
The active sink is ambient -- installed once by the CLI's ``--trace``
flag via :func:`tracing` and picked up by every engine, controller, and
grid worker (workers inherit it at ``fork``) -- mirroring how
:class:`~repro.experiments.runner.ExecutionSettings` travel.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.telemetry import events
from repro.telemetry.events import (
    CATEGORIES,
    CONTROLLER,
    RUNNER,
    SWITCH,
    parse_categories,
    validate_event,
    validate_trace_file,
)
from repro.telemetry.profile import (
    PROFILE,
    RunManifest,
    WorkerProfile,
    build_manifest,
    write_manifest,
)
from repro.telemetry.sinks import JsonlSink, NullSink, RingBufferSink, TraceSink

__all__ = [
    "CATEGORIES",
    "CONTROLLER",
    "SWITCH",
    "RUNNER",
    "TraceSink",
    "NullSink",
    "RingBufferSink",
    "JsonlSink",
    "PROFILE",
    "WorkerProfile",
    "RunManifest",
    "build_manifest",
    "write_manifest",
    "parse_categories",
    "validate_event",
    "validate_trace_file",
    "events",
    "current_sink",
    "set_sink",
    "tracing",
    "resolve_sink",
]

_NULL = NullSink()
_SINK: TraceSink = _NULL


def current_sink() -> TraceSink:
    """The ambient trace sink (a :class:`NullSink` by default)."""
    return _SINK


def set_sink(sink: Optional[TraceSink]) -> TraceSink:
    """Install a new ambient sink (None = disable); returns the old one."""
    global _SINK
    previous = _SINK
    _SINK = sink if sink is not None else _NULL
    return previous


@contextmanager
def tracing(sink: Optional[TraceSink]) -> Iterator[TraceSink]:
    """Scope an ambient sink to a ``with`` block."""
    previous = set_sink(sink)
    try:
        yield current_sink()
    finally:
        set_sink(previous)


def resolve_sink(sink: Optional[TraceSink]) -> Optional[TraceSink]:
    """What instrumented components store at construction time.

    An explicit sink wins, otherwise the ambient one; a disabled sink
    resolves to None so emission sites guard with a single ``is not
    None`` test and a category check.
    """
    resolved = sink if sink is not None else _SINK
    return resolved if resolved.enabled else None
