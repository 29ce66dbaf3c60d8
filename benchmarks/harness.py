#!/usr/bin/env python
"""Host calibration for perfbench, and the gate on its committed baseline.

``calibrate()`` times a fixed pure-Python loop; ``perfbench/measure.py``
loads this file by path and scales its metrics by that reading. The
file imports nothing from the simulator, so loading it leaves the
benchmark process as it was.

Run as a script, it is the CI gate on perfbench results::

    python3 perfbench/run.py --workload grid_pool --seed 1 --seconds 36 \\
        --trace 0 > grid_pool.out
    python benchmarks/harness.py grid_pool.out cpu_validation.out ...

Each argument is a file whose last line is the JSON result that
``perfbench/run.py`` printed; the file name up to its first dot names
the workload. Every end-to-end metric in ``BENCHMARK.json`` is compared
with that workload's entry in ``benchmarks/baseline.json``, which maps
workload names to result objects of the same form. A metric fails when
it is worse than the baseline by more than its ``bound`` (a fraction of
the baseline value) in its ``better`` direction. The gate prints a
Markdown table and exits 1 unless every result has ``correct: true``,
``failed: 0`` and no failing or missing metric.
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


def gate(
    results: Mapping[str, Mapping[str, Any]],
    baseline: Mapping[str, Mapping[str, Any]],
    metrics: Sequence[Mapping[str, Any]],
) -> Tuple[List[str], List[str]]:
    """Compare ``results`` (workload → result) with ``baseline``.

    ``metrics`` are the ``end_to_end`` entries of ``BENCHMARK.json``.
    Returns the Markdown table lines and the failures, one line each
    naming its workload and cause; the gate passes when there are none.
    """
    table = [
        "| workload | metric | baseline | result | worse by | bound | |",
        "|---|---|---:|---:|---:|---:|---|",
    ]
    failures: List[str] = []
    for workload, result in results.items():
        if result.get("correct") is not True:
            failures.append(f"{workload}: correct is {result.get('correct')!r}")
        if result.get("failed") != 0:
            failures.append(f"{workload}: failed is {result.get('failed')!r}")
        base = baseline.get(workload)
        if base is None:
            failures.append(f"{workload}: no baseline for this workload")
            continue
        for metric in metrics:
            name = metric["name"]
            try:
                old = float(base["metrics"][name]["value"])
                new = float(result["metrics"][name]["value"])
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
                f"| {workload} | {name} | {old:.4g} | {new:.4g} | {worse:+.1%} "
                f"| {metric['bound']:.0%} | {'ok' if ok else '**FAIL**'} |"
            )
    return table, failures


def _last_line_json(path: Path) -> Dict[str, Any]:
    lines = path.read_text().strip().splitlines()
    if not lines:
        raise ValueError("empty file")
    result = json.loads(lines[-1])
    if not isinstance(result, dict):
        raise ValueError("last line is not a JSON object")
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    paths = [Path(arg) for arg in (sys.argv[1:] if argv is None else argv)]
    if not paths:
        print("usage: python benchmarks/harness.py RESULT...", file=sys.stderr)
        return 2
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    baseline = json.loads(BASELINE.read_text())
    results: Dict[str, Dict[str, Any]] = {}
    unreadable: List[str] = []
    for path in paths:
        workload = path.name.split(".")[0]
        try:
            results[workload] = _last_line_json(path)
        except (OSError, ValueError) as exc:
            unreadable.append(f"{workload}: cannot read a result from {path}: {exc}")
    table, failures = gate(results, baseline, metrics)
    failures = unreadable + failures
    print("\n".join(table))
    print()
    for line in failures:
        print(f"FAIL {line}")
    print("gate: " + ("FAILED" if failures else "passed")
          + f" ({len(results)} result(s) vs {BASELINE.name})")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
