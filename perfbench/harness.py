"""The pass loop every workload shares, and the metric report.

A workload supplies ``setup_samples()`` and ``run_pass(index, traced)``;
the loop repeats passes until the next one would overrun the run's
time, alternating untraced and traced passes when tracing is on, and
turns the passes into the metrics ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from perfbench import measure, spans

#: The benchmark's definition: its workloads and metric tables.
SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Host speed that normalized times refer to, in Mops/s of the
#: calibration loop (a typical reading on the 2-core host the first
#: baseline was measured on).
REFERENCE_MOPS = 12.0

#: Passes every run makes, however long they take: a median needs more
#: than one, and a traced run needs an untraced and a traced pass.
MIN_PASSES = 2


def metric_table(kind: str) -> Dict[str, str]:
    """``name -> unit`` of the ``end_to_end`` or ``per_layer`` metrics
    that ``BENCHMARK.json`` lists."""
    spec = json.loads(SPEC_PATH.read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


@dataclass
class PassResult:
    """What one pass of a workload measured and checked."""

    wall_s: float
    cpu_s: float
    sim_cycles: float
    #: seconds each job took: a grid task or detailed-core run from its
    #: dispatch to its completion, a service job from its due time
    job_latencies_s: List[float]
    attempted: int
    failed: int
    correct: bool
    sim_err_pct: float
    traced: bool = False
    #: host speed next to this pass (Mops/s of the calibration loop)
    calib: float = REFERENCE_MOPS
    #: merged span aggregates of a traced pass
    trace: Optional[dict] = None
    #: per-layer values the workload measured itself (client side)
    layer_extras: Dict[str, float] = field(default_factory=dict)
    #: samples behind percentile per-layer metrics, in seconds
    layer_samples: Dict[str, List[float]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)


def probe_setup(root: Path, imports: Sequence[str], repeats: int = 5) -> List[float]:
    """Seconds from interpreter start until ``imports`` are loaded.

    Each probe is a fresh interpreter, so the reading includes start-up
    and every import a user of the workload pays before work begins.
    """
    code = "; ".join(f"import {name}" for name in imports) + "; print('ready', flush=True)"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, env=env, cwd=root
        )
        line = proc.stdout.readline()
        samples.append(time.perf_counter() - start)
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed importing {imports}")
    return samples


def run_passes(workload, seconds: float, traced: bool) -> List[PassResult]:
    """Repeat passes while the next one fits in ``seconds``.

    At least ``MIN_PASSES`` run. With tracing, passes alternate
    untraced/traced so both halves see the same host conditions.
    """
    passes: List[PassResult] = []
    durations: List[float] = []
    start = time.perf_counter()
    before = measure.calibrate()
    while True:
        index = len(passes)
        began = time.perf_counter()
        result = workload.run_pass(index, traced and index % 2 == 1)
        durations.append(time.perf_counter() - began)
        after = measure.calibrate()
        result.calib = (before + after) / 2.0
        before = after
        passes.append(result)
        if len(passes) < MIN_PASSES:
            continue
        if time.perf_counter() - start + measure.median(durations) > seconds:
            return passes


def _tail_ms(samples_s: Sequence[float], q: float, label: str, notes: List[str]) -> float:
    if not samples_s:
        notes.append(f"{label}: no samples")
        return 0.0
    found = measure.tail([value * 1000.0 for value in samples_s], q)
    notes.append(f"{label}: {found.describe('ms')}")
    return found.value


def _pass_tails_ms(per_pass_s: Sequence[Sequence[float]], q: float,
                   notes: List[str]) -> float:
    """Median over passes of each pass's ``q``-th percentile, in ms."""
    tails = [_tail_ms(samples, q, "pass job latency", notes) for samples in per_pass_s]
    return measure.median(tails)


def end_to_end(passes: Sequence[PassResult], setup: Sequence[float],
               notes: List[str], sim_err: Optional[float],
               schedule_bound: bool, peak_rss_mb: float) -> Dict[str, float]:
    """End-to-end figures of the untraced passes.

    Times are scaled to the reference host speed with the calibration
    reading next to each pass (``time x calib / REFERENCE_MOPS``), so a
    host that runs slower for a while does not read as a slower program.
    A schedule-bound workload's pass length and CPU are set by its
    arrival schedule rather than by work, so those (and the cycle rate
    over that length) stay unscaled. Its job latencies are scaled all
    the same: unscaled, the service's p95 followed the host's drift over
    minutes (spread 0.33 over ten seeds, against 0.19 scaled).

    The jobs of a schedule-bound workload are independent arrivals, so
    their latencies are pooled over the run. A pass of the others is one
    piece of work whose tasks start together (a batch call holds 64 of
    them), so pooled, its p95 was the slowest pass's batch call; there
    the median over passes of each pass's percentile is reported.
    """
    plain = [p for p in passes if not p.traced]
    scale = [p.calib / REFERENCE_MOPS for p in plain]
    scale_run = [1.0] * len(plain) if schedule_bound else scale
    per_pass = [[value * f for value in p.job_latencies_s] for p, f in zip(plain, scale)]
    latencies = [value for samples in per_pass for value in samples]
    walls = [p.wall_s * f for p, f in zip(plain, scale_run)]
    cpus = [p.cpu_s * f for p, f in zip(plain, scale_run)]
    raw = [value for p in plain for value in p.job_latencies_s]
    notes.append("raw medians: wall %.4f s, host cpu %.4f s, job p50 %.2f ms, p95 %.2f ms; "
                 "scale factors %s" % (
                     measure.median([p.wall_s for p in plain]),
                     measure.median([p.cpu_s for p in plain]),
                     1000 * measure.percentile(raw, 50), 1000 * measure.percentile(raw, 95),
                     ", ".join(f"{f:.3f}" for f in scale)))
    values = {
        "setup_s": measure.median(setup),
        "wall_s": measure.median(walls),
        "sim_cycles_per_s": measure.median(
            [p.sim_cycles / wall for p, wall in zip(plain, walls)]),
        "host_cpu_s": measure.median(cpus),
        "peak_rss_mb": peak_rss_mb,
        "sim_err_pct": measure.median([p.sim_err_pct for p in passes])
        if sim_err is None else sim_err,
    }
    for name, q in (("job_p50_ms", 50.0), ("job_p95_ms", 95.0)):
        values[name] = (_tail_ms(latencies, q, "job latency", notes) if schedule_bound
                        else _pass_tails_ms(per_pass, q, notes))
    return values


#: Per-layer percentiles: metric -> (sample list, percentile).
_LAYER_PERCENTILES = {
    "service.submit_ms_p50": ("service.submit_s", 50.0),
    "service.submit_ms_p95": ("service.submit_s", 95.0),
    "service.queue_wait_ms_p50": ("service.queue_wait_s", 50.0),
    "service.queue_wait_ms_p95": ("service.queue_wait_s", 95.0),
    "service.run_ms_p50": ("service.run_s", 50.0),
    "loadgen.late_p95_ms": ("loadgen.late_s", 95.0),
}


def per_layer(passes: Sequence[PassResult], names: Sequence[str],
              notes: List[str]) -> Dict[str, float]:
    """Per-pass layer figures from the traced passes' merged spans.

    Every metric in ``names`` gets a value; a layer the workload does
    not exercise reads 0.
    """
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    n = len(traced)
    merged = spans.merge([p.trace for p in traced])
    span = merged["spans"]
    counters = merged["counters"]
    samples = dict(merged["samples"])
    extras: Dict[str, float] = defaultdict(float)
    for p in traced:
        for name, value in p.layer_extras.items():
            extras[name] += value / n
        for name, values in p.layer_samples.items():
            samples.setdefault(name, []).extend(values)

    def count(name: str) -> float:
        return span.get(name, (0, 0.0, 0.0))[0] / n

    def total(name: str) -> float:
        return span.get(name, (0, 0.0, 0.0))[1] / n

    def own(name: str) -> float:
        return span.get(name, (0, 0.0, 0.0))[2] / n

    def counter(name: str) -> float:
        return counters.get(name, 0.0) / n

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    hits, misses = counter("cache.hits"), counter("cache.misses")
    runs = counters.get("service.runs", 0.0)
    distinct = sum(1 for name in counters if name.startswith("run:"))
    worker_busy = total("supervisor.task")
    capacity = counter("supervisor.jobs_x_busy_s") + extras.pop("supervisor.capacity_s", 0.0)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    values = dict.fromkeys(names, 0.0)
    values.update({
        "workloads.segments": counter("workloads.segments"),
        "workloads.gen_s": own("workloads.take") + total("workloads.next"),
        "engine.scalar.runs": count("engine.scalar"),
        "engine.scalar.busy_s": own("engine.scalar"),
        "engine.st.runs": count("engine.st"),
        "engine.st.busy_s": own("engine.st"),
        "engine.sim_cycles": counter("engine.sim_cycles"),
        "cpu.runs": count("cpu"),
        "cpu.busy_s": own("cpu"),
        "cpu.cycles": counter("cpu.cycles"),
        "cpu.cycles_per_busy_s": ratio(counter("cpu.cycles"), own("cpu")),
        "supervisor.tasks": count("supervisor.task"),
        "supervisor.busy_s": own("supervisor.run") + own("supervisor.pump")
        + own("supervisor.submit"),
        "supervisor.worker_busy_s": worker_busy,
        "supervisor.worker_idle_frac": max(0.0, 1.0 - ratio(worker_busy, capacity))
        if capacity else 0.0,
        "supervisor.retries": counter("supervisor.retries"),
        "supervisor.failed": counter("supervisor.failed"),
        "supervisor.pump_calls": count("supervisor.pump"),
        "checkpoint.records": counter("checkpoint.records"),
        "checkpoint.write_s": total("checkpoint.write"),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": ratio(hits, hits + misses),
        "cache.load_s": total("cache.load"),
        "cache.store_s": total("cache.store"),
        "journal.records": counter("journal.records"),
        "journal.write_s": total("journal.write"),
        "service.admit_s": own("service.admit"),
        "service.duplicate_runs": (runs - distinct) / n,
        "service.useful_run_ratio": ratio(distinct, runs),
        "failed_frac": ratio(failed, attempted),
        "job.samples": float(sum(len(p.job_latencies_s) for p in plain)),
        "trace.overhead_pct": 100.0 * (
            ratio(measure.median([p.cpu_s * p.calib for p in traced]),
                  measure.median([p.cpu_s * p.calib for p in plain])) - 1.0),
        "host.calib_mops": measure.median([p.calib for p in passes]),
        "host.wall_x_calib": measure.median([p.wall_s * p.calib for p in plain]),
    })
    for metric, (source, q) in _LAYER_PERCENTILES.items():
        if samples.get(source):
            values[metric] = _tail_ms(samples[source], q, metric, notes)
    values.update(extras)
    return values


def report(workload: str, seed: int, passes: Sequence[PassResult],
           setup: Sequence[float], traced: bool, calibration: Sequence[float],
           record_dir: Path, peak_rss_mb: float, sim_err: Optional[float] = None,
           schedule_bound: bool = False) -> dict:
    """Print the human-readable lines and return the result object."""
    notes: List[str] = [
        f"workload {workload} seed {seed}: {len(passes)} passes "
        f"({sum(p.traced for p in passes)} traced)",
        "host calibration (Mops/s): set-up " + ", ".join(
            f"{value:.3f}" for value in calibration) + "; passes " + ", ".join(
            f"{p.calib:.3f}" for p in passes),
        "set-up samples (s): " + ", ".join(f"{value:.4f}" for value in setup),
        "pass wall (s): " + ", ".join(f"{p.wall_s:.4f}" for p in passes),
    ]
    for p in passes:
        notes.extend(p.notes)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = all(p.correct for p in passes)
    table = metric_table("per_layer" if traced else "end_to_end")
    invalid = [name for name in table if not measure.valid_metric_name(name)]
    if invalid:
        raise ValueError(f"metric names outside [A-Za-z0-9_.-]: {invalid}")
    if traced:
        values = per_layer(passes, list(table), notes)
    else:
        values = end_to_end(passes, setup, notes, sim_err, schedule_bound, peak_rss_mb)
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in table.items()}
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    for line in notes:
        print(f"# {line}")
    record_dir.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=workload, seed=seed, trace=int(traced),
                  calibration_mops=list(calibration), notes=notes)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (record_dir / f"{workload}-s{seed}-t{int(traced)}-{stamp}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return result
