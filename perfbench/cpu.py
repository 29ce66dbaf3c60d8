"""``cpu_validation``: the detailed out-of-order core.

One pass runs ``matched_workload_comparison`` at a fixed 10k-instruction
budget (the detailed core against the segment engine on three matched
pairs) plus the enforced gcc:eon run of ``bench_detailed_core``: both
threads alone, then SOE at F = 0 and at F = 1/2. The inputs are the
fixed traces those functions define, so the seed changes nothing here;
the modelled caches start empty and each run warms them with its
warmup instructions before measuring.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path
from typing import List

from perfbench import measure, spans
from perfbench.harness import PassResult, probe_setup

#: Instructions per thread of each matched comparison.
MATCHED_INSTRUCTIONS = 10_000
#: The segment-engine vs detailed-core error ``bench_validation`` allows.
ERROR_BOUND = 0.15
#: Detailed-core runs per pass: three matched pairs, two single-thread
#: references, and the F = 0 and F = 1/2 gcc:eon runs.
CORE_RUNS = 7


def _fairness(ipcs, single) -> float:
    speedups = [ipc / alone for ipc, alone in zip(ipcs, single)]
    return min(speedups) / max(speedups)


class CpuWorkload:
    #: Runs in this process alone: keep it on one CPU, the one the
    #: calibration readings beside each pass measure.
    one_cpu = True

    def __init__(self, root: Path, workdir: Path, seed: int, tracer) -> None:
        self.root = root
        self.tracer = tracer

    def setup_samples(self) -> List[float]:
        return probe_setup(self.root, ["repro.cpu.validation", "repro.cpu.soe_core"])

    def run_pass(self, index: int, traced: bool) -> PassResult:
        from repro.core.controller import FairnessController, FairnessParams
        from repro.cpu import soe_core, validation
        from repro.telemetry.profile import PROFILE
        from repro.workloads.cpu_mapping import cpu_spec_for_profile
        from repro.workloads.spec2000 import get_profile
        from repro.workloads.tracegen import make_trace

        if traced:
            self.tracer.install()
        # Duration of every detailed-core run, read through the bindings
        # the callers use (the tracer may have wrapped them).
        durations: List[float] = []
        saved = (validation.run_cpu_soe, soe_core.run_cpu_soe,
                 soe_core.run_cpu_single_thread)

        def timed(func):
            def call(*args, **kwargs):
                began = time.perf_counter()
                result = func(*args, **kwargs)
                durations.append(time.perf_counter() - began)
                return result
            return call

        validation.run_cpu_soe = timed(saved[0])
        run_soe, run_single = timed(saved[1]), timed(saved[2])
        try:
            cycles0 = PROFILE.snapshot().simulated_cycles
            cpu0 = measure.cpu_seconds()
            start = time.perf_counter()
            matched = validation.matched_workload_comparison(
                min_instructions=MATCHED_INSTRUCTIONS
            )
            specs = [cpu_spec_for_profile(get_profile(name)) for name in ("gcc", "eon")]
            single = [
                run_single(
                    make_trace(spec, seed=i + 1, thread_index=i),
                    min_instructions=10_000,
                    warmup_instructions=5_000,
                ).total_ipc
                for i, spec in enumerate(specs)
            ]
            programs = [make_trace(spec, seed=i + 1, thread_index=i)
                        for i, spec in enumerate(specs)]
            baseline = run_soe(programs, min_instructions=5_000, warmup_instructions=3_000)
            controller = FairnessController(
                2, FairnessParams(fairness_target=0.5, sample_period=5_000.0)
            )
            programs = [make_trace(spec, seed=i + 1, thread_index=i)
                        for i, spec in enumerate(specs)]
            enforced = run_soe(programs, controller, min_instructions=5_000,
                               warmup_instructions=3_500)
            wall = time.perf_counter() - start
            cpu = measure.cpu_seconds() - cpu0
            cycles = PROFILE.snapshot().simulated_cycles - cycles0
        finally:
            validation.run_cpu_soe = saved[0]
            if traced:
                self.tracer.uninstall()
        trace = None
        if traced:
            trace = spans.merge_dir(self.tracer.dump_dir, self.tracer.recorder)
            shutil.rmtree(self.tracer.dump_dir, ignore_errors=True)

        errors = [abs(engine - core) / core for _label, engine, core in matched]
        failed = sum(error >= ERROR_BOUND for error in errors)
        before = _fairness(baseline.ipcs, single)
        after = _fairness(enforced.ipcs, single)
        # bench_detailed_core's checks: gcc starves at F = 0 and the
        # controller more than doubles fairness at a throughput cost.
        enforced_ok = (before < 0.35 and after > 2 * before
                       and enforced.total_ipc < baseline.total_ipc)
        failed += 0 if enforced_ok else 2
        notes = [
            f"pass {index}: matched errors "
            + ", ".join(f"{label} {100 * error:.2f}%" for (label, _, _), error
                        in zip(matched, errors))
            + f"; gcc:eon fairness {before:.3f} -> {after:.3f}"
        ]
        return PassResult(
            wall_s=wall,
            cpu_s=cpu,
            sim_cycles=cycles,
            job_latencies_s=durations,
            attempted=CORE_RUNS,
            failed=failed,
            correct=failed == 0 and len(durations) == CORE_RUNS,
            sim_err_pct=100.0 * max(errors),
            traced=traced,
            trace=trace,
            notes=notes,
        )
