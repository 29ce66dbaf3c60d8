"""Command-line front-end: ``python -m repro <experiment>``.

Examples::

    python -m repro list                 # show available experiments
    python -m repro table2               # reproduce Table 2
    python -m repro fig7 --scale paper   # Figure 7 at the paper's run lengths
    python -m repro all --jobs 8         # whole evaluation, 8 worker processes
    python -m repro all --cache-dir .repro-cache   # reuse finished grid runs
    python -m repro fig7 --trace t.jsonl # stream trace events while running
    python -m repro trace-summary t.jsonl   # render a recorded trace
    python -m repro lint                 # static analysis (repro-lint)
    python -m repro lint --eq-table      # paper-equation coverage map
    python -m repro policies             # the registered switch policies
    python -m repro frontier             # cross-policy fairness/throughput
    python -m repro fig7 --policy drr-arbiter   # rerun a figure under a policy
    python -m repro frontier --policies none,fairness,drr-arbiter

Fault tolerance (``docs/ROBUSTNESS.md``)::

    python -m repro all --jobs 8 --task-timeout 300 --checkpoint run.ckpt
    python -m repro all --jobs 8 --resume run.ckpt     # after a crash/^C
    python -m repro fig7 --on-failure degrade          # keep what finished
    python -m repro fig7 --inject-faults crash@2,hang@5 --task-timeout 5
    python -m repro fig7 --retries 3 --retry-backoff 0.25   # jittered backoff

The simulation service (``docs/SERVICE.md``)::

    python -m repro serve --port 8100 --jobs 4 --journal jobs.ckpt
    python -m repro submit --url http://127.0.0.1:8100 \
        --tenant alice --pair gcc:eon --wait
    python -m repro status --url http://127.0.0.1:8100 JOB_ID
    python -m repro watch --url http://127.0.0.1:8100 JOB_ID

Exit codes: 0 success; 2 usage or configuration error, or grid aborted
with failed tasks; 3 degraded (``--on-failure degrade`` with failures);
130 interrupted and drained.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import Optional, Sequence

from repro import faults, telemetry
from repro.errors import ConfigurationError, GridExecutionError, GridInterrupted
from repro.experiments.common import EvalConfig
from repro.experiments.registry import experiment_ids, get_experiment
from repro.experiments.runner import (
    ExecutionSettings,
    ON_FAILURE_MODES,
    degraded_outcomes,
    execution,
    reset_degraded,
    run_grid,
)

__all__ = ["main", "build_parser"]

#: Experiments that share the 16-pair evaluation grid.
_GRID = ("fig6", "fig7", "fig8")

#: Execution order of ``python -m repro all`` (the grid figures run in
#: between, off one shared grid; ``stability`` reruns the grid per seed
#: and stays opt-in).
_ALL_BEFORE_GRID = ("table2", "fig3", "fig5")
_ALL_AFTER_GRID = ("timesharing", "validation", "ablations", "events",
                   "threadcount", "weighted", "sensitivity")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soe-repro",
        description=(
            "Reproduction of 'Fairness and Throughput in Switch on Event "
            "Multithreading' (MICRO 2006)"
        ),
    )
    parser.add_argument(
        "experiment",
        help="experiment id, 'all', 'list', 'policies', 'lint', "
        "'trace-summary', 'serve', or a service client command "
        "(submit, status, watch)",
    )
    parser.add_argument(
        "path",
        nargs="?",
        help="trace file (only for the trace-summary subcommand)",
    )
    parser.add_argument(
        "--scale",
        choices=("quick", "default", "paper"),
        default="default",
        help="run length preset (paper = 6M instructions per thread)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="workload seed (default 0)"
    )
    parser.add_argument(
        "--policy",
        metavar="NAME",
        help="switch policy enforcing the non-zero fairness levels "
             "(default: fairness, the paper's mechanism; see "
             "'python -m repro policies' for the registry)",
    )
    parser.add_argument(
        "--policies",
        metavar="NAMES",
        help="comma-separated policies the frontier experiment sweeps "
             "(default: every registered policy; frontier only)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for grid/sweep simulations (default 1 = "
             "serial; results are bit-identical at any job count)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        help="directory for the on-disk result cache; re-renders of "
             "already-computed runs skip simulation",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="neither read nor write the on-disk result cache",
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per grid task attempt; hung workers are "
             "terminated and the task retried (default: no timeout)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="extra attempts for a failed grid task before it lands in "
             "the failure manifest (default 2)",
    )
    parser.add_argument(
        "--retry-backoff",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="base of the deterministic exponential retry backoff with "
             "seeded jitter: attempt n waits in [base*2^(n-1)/2, "
             "base*2^(n-1)] seconds (default 0 = retry immediately)",
    )
    parser.add_argument(
        "--on-failure",
        choices=ON_FAILURE_MODES,
        default="abort",
        help="what a grid does when tasks exhaust their retries: abort "
             "(exit 2, completed work still cached/journaled) or degrade "
             "(render what finished, exit 3)",
    )
    parser.add_argument(
        "--checkpoint",
        metavar="PATH",
        help="journal every finished grid task to PATH (append-only, "
             "fsync'd) so an interrupted run can be resumed",
    )
    parser.add_argument(
        "--resume",
        metavar="PATH",
        help="resume from a checkpoint written by --checkpoint: finished "
             "tasks are skipped, new ones appended to the same journal; "
             "the resumed grid is bit-identical to an uninterrupted run",
    )
    parser.add_argument(
        "--inject-faults",
        metavar="SPEC",
        help="deterministic fault injection for testing the supervisor "
             "and the service: comma-separated kind@index[*count] entries "
             "with kind one of crash, hang, nan, corrupt, storm, stall, "
             "jtear (e.g. crash@2,hang@5); see docs/ROBUSTNESS.md and "
             "docs/SERVICE.md",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="stream schema-validated trace events (JSONL) to PATH and "
             "write a profiling manifest to PATH.manifest.json; results "
             "are bit-identical with tracing on or off",
    )
    parser.add_argument(
        "--trace-events",
        metavar="CATEGORIES",
        help="comma-separated trace categories to record "
             "(controller,switch,runner; default: all)",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        help="also write the rendered text to FILE",
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        help="also write the raw result as JSON to FILE ('all' writes a "
             "combined document keyed by experiment id)",
    )
    return parser


def _config_for(
    scale: str, seed: int, policy: Optional[str] = None
) -> EvalConfig:
    if scale == "paper":
        base = EvalConfig.paper_scale()
    elif scale == "quick":
        base = EvalConfig.quick()
    else:
        base = EvalConfig()
    if seed == base.seed and policy is None:
        return base
    from dataclasses import replace

    if policy is None:
        return replace(base, seed=seed)
    return replace(base, seed=seed, policy=policy)


def _parse_policies(text: Optional[str]) -> Optional[tuple[str, ...]]:
    """Parse ``--policies`` ("none,fairness,..."); None = all registered."""
    if text is None:
        return None
    names = tuple(part.strip() for part in text.split(",") if part.strip())
    if not names:
        raise ConfigurationError("--policies needs at least one policy name")
    from repro.core.policies import get_policy

    for name in names:
        get_policy(name)  # raises for unknown names
    return names


def _run_one(
    experiment_id: str,
    config: EvalConfig,
    policies: Optional[tuple[str, ...]] = None,
) -> tuple[object, str]:
    """Run one registered experiment; every run() accepts ``config=``."""
    experiment = get_experiment(experiment_id)
    if policies is not None:
        result = experiment.run(config=config, policies=policies)
    else:
        result = experiment.run(config=config)
    return result, experiment.render(result)


def _run_grid(config: EvalConfig) -> tuple[dict[str, object], list[str]]:
    """Run the 16-pair grid once and derive Figures 6-8 from it."""
    from repro.experiments import fig6, fig7, fig8

    pair_results = run_grid(config).results
    modules = {"fig6": fig6, "fig7": fig7, "fig8": fig8}
    results = {
        experiment_id: module.run(config, pairs=pair_results)
        for experiment_id, module in modules.items()
    }
    sections = [
        modules[experiment_id].render(results[experiment_id])
        for experiment_id in _GRID
    ]
    return results, sections


def _write_text(path: str, text: str) -> None:
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text)


def _build_sink(args: argparse.Namespace) -> Optional[telemetry.JsonlSink]:
    """The trace sink requested on the command line (None = no tracing)."""
    if args.trace is None:
        if args.trace_events:
            raise ConfigurationError("--trace-events requires --trace PATH")
        return None
    categories = telemetry.parse_categories(args.trace_events)
    return telemetry.JsonlSink(pathlib.Path(args.trace), categories)


def _emit_failure_manifest(
    outcome: object, checkpoint: Optional[pathlib.Path]
) -> None:
    """Report a degraded/aborted grid: stderr summary + JSON manifest.

    When a checkpoint journal is in use the manifest lands next to it
    (``<checkpoint>.manifest.json``), so the artifacts needed to resume
    -- journal plus an account of what failed -- travel together.
    """
    manifest = getattr(outcome, "failure_manifest", None)
    if manifest is None:
        return
    payload = manifest()
    print(
        f"[grid] {payload['completed_pairs']} pair(s) completed, "
        f"{len(payload['incomplete_pairs'])} incomplete, "
        f"{payload['skipped_tasks']} task(s) skipped"
        + (" (interrupted)" if payload["interrupted"] else ""),
        file=sys.stderr,
    )
    for failure in payload["failures"]:
        print(
            f"[grid]   {failure['reason']}: {failure['kind']} "
            f"{failure['label']} after {failure['attempts']} attempt(s): "
            f"{failure['message']}",
            file=sys.stderr,
        )
    if checkpoint is not None:
        manifest_path = pathlib.Path(f"{checkpoint}.manifest.json")
        manifest_path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"[grid] failure manifest -> {manifest_path}", file=sys.stderr)


def _execution_settings(args: argparse.Namespace) -> ExecutionSettings:
    if args.resume and args.checkpoint and args.resume != args.checkpoint:
        raise ConfigurationError(
            "--checkpoint and --resume name different journals; --resume "
            "PATH alone both reads and extends it"
        )
    checkpoint = args.resume or args.checkpoint
    return ExecutionSettings(
        jobs=args.jobs,
        cache_dir=None if args.no_cache or args.cache_dir is None
        else pathlib.Path(args.cache_dir),
        task_timeout=args.task_timeout,
        retries=args.retries,
        retry_backoff=args.retry_backoff,
        on_failure=args.on_failure,
        checkpoint=pathlib.Path(checkpoint) if checkpoint else None,
        resume=args.resume is not None,
    )


def _serve(arg_list: list) -> int:
    """The ``serve`` subcommand: run the simulation service."""
    from repro.service.app import ServiceConfig, run_service

    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Run the resilient simulation service (docs/SERVICE.md).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8100,
        help="listen port (0 = ephemeral; see --port-file)",
    )
    parser.add_argument(
        "--port-file", metavar="PATH",
        help="write the bound port to PATH (for tests/CI binding port 0)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes in the shared supervised pool (default 1)",
    )
    parser.add_argument(
        "--queue-depth", type=int, default=64, metavar="N",
        help="per-tenant queue bound; a full queue rejects with HTTP 429 "
             "and a retry-after hint (default 64)",
    )
    parser.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget per job attempt (job deadlines tighten "
             "this per job; default: no timeout)",
    )
    parser.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="extra attempts for a failed job before it is reported "
             "failed (default 2)",
    )
    parser.add_argument(
        "--retry-backoff", type=float, default=0.0, metavar="SECONDS",
        help="base of the deterministic exponential retry backoff with "
             "seeded jitter (default 0 = retry immediately)",
    )
    parser.add_argument(
        "--breaker-window", type=int, default=8, metavar="N",
        help="recent attempt outcomes the circuit breaker remembers",
    )
    parser.add_argument(
        "--breaker-threshold", type=int, default=4, metavar="N",
        help="crash/timeout outcomes within the window that trip the "
             "breaker open (cache-only serving until it recovers)",
    )
    parser.add_argument(
        "--breaker-cooldown", type=int, default=10, metavar="N",
        help="dispatcher cycles the breaker stays open before probing "
             "(an idle cycle lasts about 0.05 s)",
    )
    parser.add_argument(
        "--journal", metavar="PATH",
        help="durable job journal; a restarted service resumes "
             "unfinished jobs and serves finished ones bit-identically",
    )
    parser.add_argument(
        "--cache-dir", metavar="PATH",
        help="result cache shared with the grid runner; submissions "
             "deduping to a cached result answer instantly",
    )
    parser.add_argument(
        "--inject-faults", metavar="SPEC",
        help="deterministic chaos: kind@index[*count] entries with kind "
             "one of crash, hang, nan, storm, stall, jtear",
    )
    parser.add_argument(
        "--trace", metavar="PATH",
        help="stream schema-validated trace events (JSONL) to PATH",
    )
    parser.add_argument(
        "--trace-events", metavar="CATEGORIES",
        help="comma-separated trace categories to record (default: all)",
    )
    args = parser.parse_args(arg_list)
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        queue_depth=args.queue_depth,
        task_timeout=args.task_timeout,
        retries=args.retries,
        retry_backoff=args.retry_backoff,
        breaker_window=args.breaker_window,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        journal=pathlib.Path(args.journal) if args.journal else None,
        cache_dir=pathlib.Path(args.cache_dir) if args.cache_dir else None,
        port_file=pathlib.Path(args.port_file) if args.port_file else None,
    )
    plan = faults.parse_fault_plan(args.inject_faults)
    sink = _build_sink(args)
    try:
        with telemetry.tracing(sink), faults.fault_injection(plan):
            return run_service(config)
    finally:
        if sink is not None:
            sink.close()


#: Client subcommands dispatched to :mod:`repro.service.client`.
_SERVICE_CLIENT_COMMANDS = ("submit", "status", "watch")


def _service_client(command: str, arg_list: list) -> int:
    from repro.service import client

    entry = {
        "submit": client.main_submit,
        "status": client.main_status,
        "watch": client.main_watch,
    }[command]
    return entry(arg_list)


def _trace_summary(args: argparse.Namespace) -> int:
    from repro.telemetry.summary import render_trace_summary

    if not args.path:
        raise ConfigurationError(
            "trace-summary needs a trace file: repro trace-summary PATH"
        )
    text = render_trace_summary(args.path)
    print(text)
    if args.output:
        _write_text(args.output, text + "\n")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; a configuration error prints and exits 2.

    Exit 2 is also what argparse gives a malformed flag, so every
    usage error, whether argparse or the config validators catch it,
    ends the same way: ``error: <message>`` on stderr, no traceback.
    """
    try:
        return _dispatch(list(sys.argv[1:] if argv is None else argv))
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _dispatch(arg_list: list) -> int:
    if arg_list and arg_list[0] == "lint":
        # The lint subcommand owns its flag set (see repro.analysis.cli).
        from repro.analysis.cli import main as lint_main

        return lint_main(arg_list[1:])
    if arg_list and arg_list[0] == "serve":
        # The service subcommand owns its flag set (see repro.service).
        return _serve(arg_list[1:])
    if arg_list and arg_list[0] in _SERVICE_CLIENT_COMMANDS:
        return _service_client(arg_list[0], arg_list[1:])
    args = build_parser().parse_args(arg_list)
    if args.experiment == "list":
        for experiment_id in experiment_ids():
            experiment = get_experiment(experiment_id)
            print(f"{experiment_id:12s} {experiment.paper_reference:15s} "
                  f"{experiment.title}")
        return 0
    if args.experiment == "policies":
        from repro.core.policies import render_policy_table

        text = render_policy_table()
        print(text)
        if args.output:
            _write_text(args.output, text + "\n")
        return 0
    if args.experiment == "trace-summary":
        return _trace_summary(args)

    config = _config_for(args.scale, args.seed, args.policy)
    policies = _parse_policies(args.policies)
    if policies is not None and args.experiment != "frontier":
        raise ConfigurationError(
            "--policies only applies to the frontier experiment; "
            "use --policy NAME to run other experiments under a "
            "single policy"
        )
    settings = _execution_settings(args)
    plan = faults.parse_fault_plan(args.inject_faults)
    reset_degraded()
    sink = _build_sink(args)
    if sink is not None:
        telemetry.PROFILE.reset()
    # repro-lint: disable=RL002 - wall time feeds only the trace manifest
    wall_start = time.perf_counter()
    try:
        with telemetry.tracing(sink), execution(settings), \
                faults.fault_injection(plan):
            if args.experiment == "all":
                results: dict[str, object] = {}
                sections: list[str] = []
                for experiment_id in _ALL_BEFORE_GRID:
                    result, text = _run_one(experiment_id, config)
                    results[experiment_id] = result
                    sections.append(text)
                grid_results, grid_sections = _run_grid(config)
                results.update(grid_results)
                sections.extend(grid_sections)
                for experiment_id in _ALL_AFTER_GRID:
                    result, text = _run_one(experiment_id, config)
                    results[experiment_id] = result
                    sections.append(text)
                text = "\n\n".join(sections)
                json_payload: object = {
                    "scale": args.scale,
                    "seed": args.seed,
                    "experiments": results,
                }
            else:
                result, text = _run_one(args.experiment, config, policies)
                json_payload = result
    except GridExecutionError as error:
        # Completed work was cached/journaled before the raise; report
        # what failed and exit distinctly (130 drained, 2 failed).
        if sink is not None:
            sink.close()
        print(f"error: {error}", file=sys.stderr)
        _emit_failure_manifest(error.outcome, settings.checkpoint)
        return 130 if isinstance(error, GridInterrupted) else 2

    print(text)
    if sink is not None:
        # repro-lint: disable=RL002 - wall time feeds only the trace manifest
        wall = time.perf_counter() - wall_start
        sink.close()
        manifest = telemetry.build_manifest(
            config, wall, args.jobs, telemetry.PROFILE.snapshot()
        )
        manifest_path = f"{args.trace}.manifest.json"
        telemetry.write_manifest(manifest, manifest_path)
        print(
            f"[trace] {manifest.events} events -> {args.trace} "
            f"({manifest.events_per_sec:,.0f} events/s, "
            f"{manifest.simulated_cycles_per_sec:,.0f} simulated cycles/s); "
            f"manifest -> {manifest_path}",
            file=sys.stderr,
        )
    if args.output:
        _write_text(args.output, text + "\n")
    if args.json:
        from repro.experiments.io import write_json

        write_json(json_payload, args.json)
    degraded = degraded_outcomes()
    if degraded:
        # --on-failure degrade: everything renderable was rendered, but
        # some grid work is missing; exit non-zero so automation notices.
        _emit_failure_manifest(degraded[-1], settings.checkpoint)
        return 130 if any(o.interrupted for o in degraded) else 3
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
