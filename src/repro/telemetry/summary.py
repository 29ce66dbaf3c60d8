"""Trace-file summaries: ``repro trace-summary PATH``.

Reads a JSONL trace (validating every line against the event schema),
aggregates it, and renders a terminal report: switch-cause histogram,
fairness-convergence timelines (per-thread IPC_ST estimates and window
instruction shares across Delta boundaries), and runner task/cache
accounting -- the "why did the mechanism do that?" view the raw event
stream is too fine-grained for.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.errors import ConfigurationError
from repro.metrics.ascii_chart import bar_chart, line_chart
from repro.telemetry.events import validate_event

__all__ = [
    "TraceSummary",
    "summarize_trace",
    "render_summary",
    "render_trace_summary",
    "manifest_metrics",
    "render_manifest_metrics",
]


def _to_float(value: object) -> float:
    """Decode a schema number (non-finite floats travel as strings)."""
    return float(value)


@dataclass
class TraceSummary:
    """Aggregates of one trace file."""

    events: int = 0
    #: switch cause -> count (both substrates combined)
    switch_causes: dict = field(default_factory=dict)
    segments: int = 0
    stalls: int = 0
    stall_cycles: float = 0.0
    #: Delta boundaries: (time, ipc_st per thread, instructions per thread)
    sample_times: list = field(default_factory=list)
    sample_ipc_st: list = field(default_factory=list)
    sample_instructions: list = field(default_factory=list)
    #: task kind -> [count, total wall seconds]
    tasks: dict = field(default_factory=dict)
    workers: set = field(default_factory=set)
    cache_hits: int = 0
    cache_misses: int = 0
    #: entries quarantined as corrupt / stale tmp files swept
    cache_corrupt: int = 0
    cache_swept: int = 0
    #: failure reason -> retry count / exhausted-task count
    task_retries: dict = field(default_factory=dict)
    task_failures: dict = field(default_factory=dict)
    #: checkpoint records written / tasks prefilled by resume
    checkpoint_writes: int = 0
    checkpoint_resumed: int = 0

    @property
    def num_threads(self) -> int:
        return len(self.sample_ipc_st[0]) if self.sample_ipc_st else 0


def summarize_trace(path: Union[str, Path]) -> TraceSummary:
    """Parse, validate, and aggregate a JSONL trace file."""
    summary = TraceSummary()
    trace = Path(path)
    if not trace.exists():
        raise ConfigurationError(f"trace file not found: {trace}")
    with trace.open("r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                event = validate_event(json.loads(line))
            except (json.JSONDecodeError, ConfigurationError) as error:
                raise ConfigurationError(f"{trace}:{line_no}: {error}") from error
            summary.events += 1
            name = event["event"]
            if name == "switch":
                cause = event["cause"]
                summary.switch_causes[cause] = summary.switch_causes.get(cause, 0) + 1
            elif name == "segment":
                summary.segments += 1
            elif name == "stall":
                summary.stalls += 1
                summary.stall_cycles += _to_float(event["duration"])
            elif name == "sample":
                summary.sample_times.append(_to_float(event["t"]))
                summary.sample_ipc_st.append(
                    [_to_float(v) for v in event["ipc_st"]]
                )
                summary.sample_instructions.append(
                    [_to_float(v) for v in event["instructions"]]
                )
            elif name == "task":
                if event["phase"] == "stop":
                    count, wall = summary.tasks.get(event["kind"], (0, 0.0))
                    wall_s = event["wall_s"]
                    summary.tasks[event["kind"]] = (
                        count + 1,
                        wall + (_to_float(wall_s) if wall_s is not None else 0.0),
                    )
                summary.workers.add(event["worker"])
            elif name == "cache":
                outcome = event["outcome"]
                if outcome == "hit":
                    summary.cache_hits += 1
                elif outcome == "miss":
                    summary.cache_misses += 1
                elif outcome == "corrupt":
                    summary.cache_corrupt += 1
                elif outcome == "sweep":
                    summary.cache_swept += 1
            elif name == "task_retry":
                reason = event["reason"]
                summary.task_retries[reason] = (
                    summary.task_retries.get(reason, 0) + 1
                )
            elif name == "task_failed":
                reason = event["reason"]
                summary.task_failures[reason] = (
                    summary.task_failures.get(reason, 0) + 1
                )
            elif name == "checkpoint":
                if event["action"] == "write":
                    summary.checkpoint_writes += int(event["tasks"])
                else:
                    summary.checkpoint_resumed += int(event["tasks"])
    return summary


def _convergence_charts(summary: TraceSummary) -> list:
    """Per-thread IPC_ST estimates and window-instruction shares over
    time -- converging shares are the mechanism doing its job."""
    sections = []
    n = summary.num_threads
    if len(summary.sample_times) < 2 or n == 0:
        sections.append(
            "(fewer than two controller samples; no convergence timeline)"
        )
        return sections
    ipc_series = {
        f"T{j} IPC_ST": [row[j] for row in summary.sample_ipc_st] for j in range(n)
    }
    sections.append("Estimated single-thread IPC per Delta window:")
    sections.append(
        line_chart(ipc_series, x_values=summary.sample_times, y_label="IPC_ST")
    )
    shares = []
    for row in summary.sample_instructions:
        total = sum(row)
        shares.append([v / total if total else 0.0 for v in row])
    share_series = {
        f"T{j} share": [row[j] for row in shares] for j in range(n)
    }
    sections.append("")
    sections.append("Window instruction share per thread (fairness convergence):")
    sections.append(
        line_chart(share_series, x_values=summary.sample_times, y_label="share")
    )
    return sections


def render_summary(summary: TraceSummary) -> str:
    """Render an aggregated trace as terminal text."""
    lines = ["Trace summary", "============="]
    lines.append(f"events: {summary.events}")
    lines.append("")
    if summary.switch_causes:
        lines.append("Thread switches by cause:")
        ordered = dict(
            sorted(summary.switch_causes.items(), key=lambda kv: -kv[1])
        )
        lines.append(bar_chart(ordered))
    else:
        lines.append("(no switch events in this trace)")
    if summary.segments or summary.stalls:
        lines.append("")
        lines.append(
            f"segments completed: {summary.segments}; idle stalls: "
            f"{summary.stalls} ({summary.stall_cycles:.0f} cycles)"
        )
    lines.append("")
    lines.append(
        f"Controller samples: {len(summary.sample_times)} Delta boundaries"
    )
    lines.extend(_convergence_charts(summary))
    if summary.tasks or summary.cache_hits or summary.cache_misses:
        lines.append("")
        lines.append("Runner tasks:")
        for kind, (count, wall) in sorted(summary.tasks.items()):
            lines.append(f"  {kind:12s} {count:5d} tasks  {wall:9.3f} s wall")
        if summary.workers:
            lines.append(f"  workers: {len(summary.workers)}")
        if summary.cache_hits or summary.cache_misses:
            lines.append(
                f"  result cache: {summary.cache_hits} hits / "
                f"{summary.cache_misses} misses"
            )
    robustness = (
        summary.task_retries
        or summary.task_failures
        or summary.cache_corrupt
        or summary.cache_swept
        or summary.checkpoint_writes
        or summary.checkpoint_resumed
    )
    if robustness:
        lines.append("")
        lines.append("Robustness:")
        if summary.task_retries:
            retried = ", ".join(
                f"{reason}: {count}"
                for reason, count in sorted(summary.task_retries.items())
            )
            lines.append(f"  retries by reason: {retried}")
        if summary.task_failures:
            failed = ", ".join(
                f"{reason}: {count}"
                for reason, count in sorted(summary.task_failures.items())
            )
            lines.append(f"  exhausted tasks by reason: {failed}")
        if summary.cache_corrupt or summary.cache_swept:
            lines.append(
                f"  cache hygiene: {summary.cache_corrupt} quarantined / "
                f"{summary.cache_swept} stale tmp swept"
            )
        if summary.checkpoint_writes or summary.checkpoint_resumed:
            lines.append(
                f"  checkpoint: {summary.checkpoint_writes} tasks journaled / "
                f"{summary.checkpoint_resumed} resumed"
            )
    return "\n".join(lines)


def manifest_metrics(path: Union[str, Path]) -> Optional[dict]:
    """The run's profiling manifest, if one sits next to the trace.

    A traced CLI run writes ``<trace>.manifest.json`` (see
    :mod:`repro.telemetry.profile`) with the run's throughput counters.
    """
    manifest_path = Path(f"{path}.manifest.json")
    if not manifest_path.exists():
        return None
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise ConfigurationError(
            f"unreadable run manifest {manifest_path}: {error}"
        ) from error
    if not isinstance(manifest, dict):
        raise ConfigurationError(
            f"run manifest {manifest_path} must be a JSON object"
        )
    return manifest


def render_manifest_metrics(manifest: dict) -> str:
    """Render the manifest's perf counters as a report section."""
    lines = ["Run profile (from the profiling manifest):"]
    wall = manifest.get("wall_seconds")
    workers = manifest.get("workers")
    if wall is not None:
        suffix = f" across {workers} worker(s)" if workers else ""
        lines.append(f"  wall time: {float(wall):.3f} s{suffix}")
    events_per_sec = manifest.get("events_per_sec")
    if events_per_sec is not None:
        lines.append(
            f"  events/sec: {float(events_per_sec):,.0f} "
            f"({int(manifest.get('events', 0))} events)"
        )
    cycles_per_sec = manifest.get("simulated_cycles_per_sec")
    if cycles_per_sec is not None:
        lines.append(
            f"  simulated cycles/sec: {float(cycles_per_sec):,.0f} "
            f"({float(manifest.get('simulated_cycles', 0.0)):,.0f} cycles)"
        )
    peak_rss = manifest.get("peak_rss_bytes")
    if peak_rss:
        lines.append(f"  peak RSS: {int(peak_rss) / (1 << 20):.1f} MiB")
    return "\n".join(lines)


def render_trace_summary(path: Union[str, Path]) -> str:
    """Summarize and render a trace file in one step (the CLI entry).

    When the run's ``<trace>.manifest.json`` exists, its throughput
    counters (events/sec, simulated cycles/sec, peak RSS) are appended.
    """
    text = render_summary(summarize_trace(path))
    manifest = manifest_metrics(path)
    if manifest is not None:
        text += "\n\n" + render_manifest_metrics(manifest)
    return text
