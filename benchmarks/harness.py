#!/usr/bin/env python
"""Host calibration for perfbench, and the gate on its committed baseline.

``calibrate()`` times a fixed pure-Python loop; ``perfbench/measure.py``
loads this file by path and scales its metrics by that reading. The
file imports nothing from the simulator, so loading it leaves the
benchmark process as it was.

Run as a script, it is the CI gate on perfbench results::

    for run in 1 2 3; do
        python3 perfbench/run.py --workload grid_pool --seed 1 \\
            --seconds 36 --trace 0 > grid_pool.$run.out
        ...
    done
    python benchmarks/harness.py grid_pool.*.out cpu_validation.*.out ...

Each argument is a file whose last line is the JSON result that
``perfbench/run.py`` printed; the file name up to its first dot names
the workload, so several files may name one workload. The gate takes
the median of each end-to-end metric in ``BENCHMARK.json`` over a
workload's runs and compares it with that workload's entry in
``benchmarks/baseline.json``, which maps workload names to result
objects of the same form, each a median of several runs too. A metric
fails when its median is worse than the baseline by more than its
``bound`` (a fraction of the baseline value) in its ``better``
direction. The gate prints a Markdown table and exits 1 unless every
run has ``correct: true`` and ``failed: 0`` and no metric is failing or
missing. ``--write-baseline`` writes ``benchmarks/baseline.json`` from
the medians of the given runs instead of gating them.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE = REPO_ROOT / "benchmarks" / "baseline.json"
BENCHMARK = REPO_ROOT / "BENCHMARK.json"

#: Iterations of the calibration loop (fixed so ops/sec is comparable).
_CALIBRATION_OPS = 2_000_000
#: Calibration repetitions; the best (max ops/sec) is kept to damp
#: scheduling noise.
_CALIBRATION_REPEATS = 3


def calibrate() -> float:
    """Ops/sec of a fixed pure-Python integer loop on this host."""
    best = 0.0
    for _ in range(_CALIBRATION_REPEATS):
        acc = 0
        start = time.perf_counter()
        for i in range(_CALIBRATION_OPS):
            acc = (acc + i) % 1000003
        elapsed = time.perf_counter() - start
        if elapsed > 0:
            best = max(best, _CALIBRATION_OPS / elapsed)
    return best


def worsening(baseline: float, value: float, better: str) -> float:
    """How much worse ``value`` is than ``baseline``, as a fraction of
    the baseline (negative: better). A change from a zero baseline is
    infinitely large."""
    change = value - baseline if better == "lower" else baseline - value
    if baseline == 0:
        return 0.0 if change == 0 else math.copysign(math.inf, change)
    return change / abs(baseline)


def median(values: Sequence[float]) -> float:
    """The middle value (the mean of the two middle ones for an even
    count)."""
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def median_metrics(
    runs: Sequence[Mapping[str, Any]], names: Sequence[str]
) -> Dict[str, Dict[str, Any]]:
    """Each named metric's median over ``runs``, with its unit; a name
    that some run lacks is left out."""
    medians: Dict[str, Dict[str, Any]] = {}
    for name in names:
        try:
            values = [float(run["metrics"][name]["value"]) for run in runs]
            unit = runs[0]["metrics"][name].get("unit")
        except (KeyError, TypeError, ValueError, AttributeError):
            continue
        medians[name] = {"unit": unit, "value": median(values)}
    return medians


def _run_failures(workload: str, runs: Sequence[Mapping[str, Any]]) -> List[str]:
    """A line per run that is not correct or reports failed operations."""
    failures: List[str] = []
    for number, run in enumerate(runs, 1):
        which = f" (run {number} of {len(runs)})" if len(runs) > 1 else ""
        if run.get("correct") is not True:
            failures.append(f"{workload}: correct is {run.get('correct')!r}{which}")
        if run.get("failed") != 0:
            failures.append(f"{workload}: failed is {run.get('failed')!r}{which}")
    return failures


def gate(
    results: Mapping[str, Sequence[Mapping[str, Any]]],
    baseline: Mapping[str, Mapping[str, Any]],
    metrics: Sequence[Mapping[str, Any]],
) -> Tuple[List[str], List[str]]:
    """Compare ``results`` (workload → its runs) with ``baseline``.

    ``metrics`` are the ``end_to_end`` entries of ``BENCHMARK.json``.
    Each metric's median over a workload's runs is what is compared.
    Returns the Markdown table lines and the failures, one line each
    naming its workload and cause; the gate passes when there are none.
    """
    table = [
        "| workload | metric | baseline | median of runs | runs | worse by "
        "| bound | |",
        "|---|---|---:|---:|---:|---:|---:|---|",
    ]
    failures: List[str] = []
    names = [metric["name"] for metric in metrics]
    for workload, runs in results.items():
        failures.extend(_run_failures(workload, runs))
        base = baseline.get(workload)
        if base is None:
            failures.append(f"{workload}: no baseline for this workload")
            continue
        medians = median_metrics(runs, names)
        for metric in metrics:
            name = metric["name"]
            try:
                old = float(base["metrics"][name]["value"])
                new = medians[name]["value"]
            except (KeyError, TypeError, ValueError):
                failures.append(f"{workload}: metric {name} missing")
                continue
            worse = worsening(old, new, metric["better"])
            ok = worse <= metric["bound"]
            if not ok:
                failures.append(
                    f"{workload}: {name} {new:.4g} is {worse:+.1%} worse than "
                    f"the baseline {old:.4g} (bound {metric['bound']:.0%})"
                )
            table.append(
                f"| {workload} | {name} | {old:.4g} | {new:.4g} | {len(runs)} "
                f"| {worse:+.1%} | {metric['bound']:.0%} "
                f"| {'ok' if ok else '**FAIL**'} |"
            )
    return table, failures


def baseline_entry(
    workload: str,
    runs: Sequence[Mapping[str, Any]],
    metrics: Sequence[Mapping[str, Any]],
) -> Dict[str, Any]:
    """A baseline entry: each end-to-end metric's median over ``runs``.

    Raises ValueError unless every run is correct, failed nothing and
    reports every metric."""
    names = [metric["name"] for metric in metrics]
    medians = median_metrics(runs, names)
    failures = _run_failures(workload, runs) + [
        f"{workload}: metric {name} missing" for name in names if name not in medians
    ]
    if failures:
        raise ValueError("; ".join(failures))
    return {"correct": True, "failed": 0, "metrics": medians, "runs": len(runs)}


def _last_line_json(path: Path) -> Dict[str, Any]:
    lines = path.read_text().strip().splitlines()
    if not lines:
        raise ValueError("empty file")
    result = json.loads(lines[-1])
    if not isinstance(result, dict):
        raise ValueError("last line is not a JSON object")
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Gate perfbench results on the median of each "
        "workload's runs against benchmarks/baseline.json."
    )
    parser.add_argument("results", nargs="+", type=Path, metavar="RESULT")
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="write benchmarks/baseline.json from the runs' medians "
        "instead of gating them",
    )
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    results: Dict[str, List[Dict[str, Any]]] = {}
    unreadable: List[str] = []
    for path in args.results:
        workload = path.name.split(".")[0]
        try:
            result = _last_line_json(path)
        except (OSError, ValueError) as exc:
            unreadable.append(f"{workload}: cannot read a result from {path}: {exc}")
            continue
        results.setdefault(workload, []).append(result)
    if args.write_baseline:
        if unreadable:
            print("\n".join(f"FAIL {line}" for line in unreadable))
            return 1
        try:
            entries = {
                workload: baseline_entry(workload, runs, metrics)
                for workload, runs in results.items()
            }
        except ValueError as exc:
            print(f"FAIL {exc}")
            return 1
        BASELINE.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
        print(f"wrote {BASELINE.name}: " + ", ".join(
            f"{w} ({len(runs)} runs)" for w, runs in sorted(results.items())
        ))
        return 0
    baseline = json.loads(BASELINE.read_text())
    table, failures = gate(results, baseline, metrics)
    failures = unreadable + failures
    print("\n".join(table))
    print()
    for line in failures:
        print(f"FAIL {line}")
    runs = sum(len(r) for r in results.values())
    print("gate: " + ("FAILED" if failures else "passed")
          + f" ({len(results)} workload(s), {runs} run(s) vs {BASELINE.name})")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
