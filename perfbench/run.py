"""Run one benchmark workload from a seed and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload grid_pool --seed 1 --seconds 36 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a run that alternates untraced and traced passes (including
the tracing overhead between the two). The last line of standard output
is the JSON result; the lines before it start with ``#`` and give the
sample counts, calibration readings and check details. Scratch files go
under ``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("grid_pool", "grid_batch", "cpu_validation", "service_mixed")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([os.environ["PYTHONPATH"]]
                                          if os.environ.get("PYTHONPATH") else [])
    )
    from perfbench import harness, measure
    from perfbench.spans import Tracer

    scratch = ROOT / ".perfbench"
    workdir = scratch / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = Tracer(workdir / "spans")
    try:
        if args.workload == "cpu_validation":
            from perfbench.cpu import CpuWorkload

            workload = CpuWorkload(ROOT, workdir, args.seed, tracer)
        elif args.workload == "service_mixed":
            from perfbench.service import ServiceWorkload

            workload = ServiceWorkload(ROOT, workdir, args.seed, tracer)
        else:
            from perfbench.grid import GridWorkload

            workload = GridWorkload(
                ROOT, workdir, args.seed, args.workload == "grid_batch", tracer
            )
        if getattr(workload, "one_cpu", False):
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        passes = harness.run_passes(workload, args.seconds, bool(args.trace))
        # Read before the set-up probes, whose processes would otherwise
        # count as the largest child.
        peak_rss = measure.peak_rss_mb()
        calibration = [measure.calibrate()]
        setup = workload.setup_samples()
        calibration.append(measure.calibrate())
        schedule_bound = args.workload == "service_mixed"
        if schedule_bound:
            # Each session starts its own server. A server's set-up (process
            # start, imports, forking its worker) did not follow the
            # calibration loop: scaled, its median moved by a quarter
            # between two sets of ten runs on a host that read 12 and
            # 15 Mops/s; unscaled, by 1 %.
            setup += workload.session_setups
        else:
            scale = measure.median(calibration) / harness.REFERENCE_MOPS
            setup = [value * scale for value in setup]
        pooled = getattr(workload, "pooled_sim_err_pct", None)
        result = harness.report(
            args.workload, args.seed, passes, setup, bool(args.trace),
            calibration, scratch / "runs", peak_rss, pooled() if pooled else None,
            schedule_bound=schedule_bound,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
