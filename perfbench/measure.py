"""Measurement helpers shared by every workload.

Percentiles with the ten-samples-beyond rule, open-loop latency from
the due time, host-speed calibration, process CPU and memory readings,
and the metric-name check. Nothing here imports the simulator; the
calibration loads ``benchmarks/harness.py`` on first use.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import json
import math
import os
import re
import resource
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it; otherwise a single slow sample decides the value.
MIN_TAIL_SAMPLES = 10

_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: The repository's perf harness, whose calibration loop this reuses.
_BENCH_HARNESS = Path(__file__).resolve().parent.parent / "benchmarks" / "harness.py"


def valid_metric_name(name: str) -> bool:
    """True for 1-64 characters of ``[A-Za-z0-9_.-]`` starting with a
    letter or digit."""
    return _NAME_RE.fullmatch(name) is not None


def samples_beyond(count: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q``-th percentile."""
    if count <= 0:
        return 0
    return count - max(1, math.ceil(q / 100.0 * count))


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``)."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


@dataclass(frozen=True)
class Tail:
    """A percentile with the sample count behind it."""

    q: float
    value: float
    count: int
    beyond: int

    @property
    def supported(self) -> bool:
        """Whether enough samples lie beyond the percentile."""
        return self.beyond >= MIN_TAIL_SAMPLES

    def describe(self, unit: str) -> str:
        note = "" if self.supported else " (fewer than ten beyond)"
        return (
            f"p{self.q:g}={self.value:.4g} {unit} over {self.count} samples, "
            f"{self.beyond} beyond{note}"
        )


def tail(samples: Sequence[float], q: float) -> Tail:
    """The ``q``-th percentile, its sample count and how many lie beyond."""
    return Tail(
        q=q,
        value=percentile(samples, q),
        count=len(samples),
        beyond=samples_beyond(len(samples), q),
    )


@dataclass(frozen=True)
class Arrival:
    """One open-loop request: when it was due, sent and finished."""

    due: float
    sent: float
    done: Optional[float]

    @property
    def latency(self) -> Optional[float]:
        """Seconds from the due time to completion (None: never done)."""
        return None if self.done is None else self.done - self.due

    @property
    def lateness(self) -> float:
        """Seconds the generator sent this request after it was due."""
        return max(0.0, self.sent - self.due)


def open_loop_latencies(
    arrivals: Iterable[Arrival], limit: float, end: float
) -> list[float]:
    """Latency of every arrival, measured from its due time.

    A request that never completed (refused, failed or still pending at
    ``end``) counts as missing the limit: it enters the distribution at
    ``limit`` or its wait until ``end``, whichever is larger, so it can
    only push percentiles up.
    """
    values = []
    for arrival in arrivals:
        latency = arrival.latency
        if latency is None:
            latency = max(limit, end - arrival.due)
        values.append(latency)
    return values


def fixed_rate_schedule(rng, rate: float, count: int) -> list[float]:
    """Due offsets (seconds) of ``count`` arrivals every ``1/rate``
    seconds, starting at a seeded phase within the first gap."""
    gap = 1.0 / rate
    first = rng.uniform(0.0, gap)
    return [first + k * gap for k in range(count)]


@functools.lru_cache(maxsize=1)
def _harness_calibrate() -> Callable[[], float]:
    spec = importlib.util.spec_from_file_location("_bench_harness", _BENCH_HARNESS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.calibrate


def calibrate() -> float:
    """Host speed in millions of ops/sec: ``calibrate()`` of
    ``benchmarks/harness.py`` (best of three timings of a fixed
    pure-Python loop), averaged over the CPUs this process may use.

    The two CPUs of a small virtual machine can run at different speeds
    for seconds at a time, so each is read on its own.
    """
    cpus = os.sched_getaffinity(0)
    readings = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            readings.append(_harness_calibrate()() / 1e6)
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(readings)


def cpu_seconds() -> float:
    """CPU seconds of this process plus every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest child it has reaped,
    in MiB.

    A forked child's peak includes the pages it still shares with this
    process, so those count twice.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


_CLK_TCK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def proc_tree_cpu_s(pid: int) -> float:
    """CPU seconds of ``pid`` and its live descendants, from /proc.

    Each process contributes its own user+system time plus that of the
    children it has already reaped (``cutime``/``cstime``).
    """
    total = 0.0
    stack = [pid]
    while stack:
        current = stack.pop()
        try:
            raw = Path(f"/proc/{current}/stat").read_text()
        except OSError:
            continue
        fields = raw[raw.rindex(")") + 2:].split()
        # fields[11..14] are utime, stime, cutime, cstime (stat 14-17).
        total += sum(int(value) for value in fields[11:15]) / _CLK_TCK
        try:
            for task in Path(f"/proc/{current}/task").iterdir():
                children = (task / "children").read_text().split()
                stack.extend(int(child) for child in children)
        except OSError:
            continue
    return total


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def digest(payload: object) -> str:
    """sha256 of a JSON-encodable value in canonical form.

    ``json`` writes floats with ``repr``, which round-trips exactly, so
    equal digests mean bit-identical numbers.
    """
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
