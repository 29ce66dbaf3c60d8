"""One differential oracle: every execution path gives the same result.

A grid result is a pure function of (config, seed, code version). For a
small drawn grid -- pairs, fairness levels, a registered policy and a
seed -- every way of computing it must return what the inline run
returns:

1. inline, ``run_grid(..., ExecutionSettings(jobs=1))`` (the reference);
2. the worker pool (``jobs=2``) with a cold result cache;
3. a warm rerun from that cache, after ``corrupt@k`` poisoned entry k;
4. the pool (one or two workers) under a crash/nan/jtear plan with no
   retries, degraded and checkpointed, then resumed from the
   checkpoint with no faults;
5. a traced run;
6. an in-process :class:`ServiceApp`, one job per pair, under a
   storm + jtear plan. The service runs ``compute_pair`` per pair;
   the grid fans out single-thread and SOE tasks.

Each path is compared with the reference twice: as objects (``==``)
and as the bytes :func:`repro.experiments.io.write_json` writes (what
``--json`` writes). Pickle bytes are not compared: pickle memoizes
shared objects, so its bytes depend on object identity as well as on
values (the service parses ``gcc:gcc`` into two distinct strings, the
grid's pair shares one).
"""

import tempfile
from dataclasses import replace
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults, telemetry
from repro.core.policies import policy_names
from repro.experiments.common import EvalConfig
from repro.experiments.io import write_json
from repro.experiments.runner import ExecutionSettings, run_grid
from repro.service.app import ServiceApp, ServiceConfig
from repro.workloads.pairs import evaluation_pairs
from tests.service.test_app import _TINY, _await_state

#: Non-zero fairness levels a drawn grid may add to the F=0 baseline.
_LEVELS = tuple(level for level in EvalConfig.quick().fairness_levels if level)


@st.composite
def grids(draw):
    pairs = draw(
        st.lists(
            st.sampled_from(evaluation_pairs()),
            min_size=1, max_size=3, unique=True,
        )
    )
    extra = draw(st.lists(st.sampled_from(_LEVELS), max_size=2, unique=True))
    config = replace(
        EvalConfig.quick(),
        **_TINY,
        fairness_levels=(0.0, *sorted(extra)),
        policy=draw(st.sampled_from(policy_names())),
        seed=draw(st.integers(0, 2**16)),
    )
    # The grid has at least two single-thread tasks ahead of its
    # pairs x levels SOE tasks, so every index below is a real task.
    task_index = st.integers(0, len(pairs) * len(config.fairness_levels) + 1)
    task_faults = draw(
        st.lists(
            st.tuples(st.sampled_from(("crash", "nan")), task_index),
            min_size=1, max_size=2,
        )
    )
    return {
        "pairs": pairs,
        "config": config,
        "corrupt": draw(st.integers(0, len(pairs) - 1)),
        "task_faults": task_faults,
        "faulted_jobs": draw(st.sampled_from((1, 2))),
        "tears": draw(st.integers(1, 4)),
    }


def _plan(*specs):
    return faults.FaultPlan(specs=tuple(faults.FaultSpec(*spec) for spec in specs))


def _grid(grid, **settings_kwargs):
    return run_grid(
        grid["config"], grid["pairs"], ExecutionSettings(**settings_kwargs)
    )


def _service_results(grid, workdir):
    """Each pair as one job of an in-process service under chaos."""
    config = grid["config"]
    pairs = grid["pairs"]
    plan = _plan(("storm", 0, len(pairs)), ("jtear", 0, grid["tears"]))
    with faults.fault_injection(plan):
        app = ServiceApp(ServiceConfig(jobs=1, journal=workdir / "jobs.jsonl"))
        try:
            # Every job is queued before the dispatcher starts, so
            # dispatch order is a pure function of the submissions.
            ids = []
            for pair in pairs:
                status, body, _headers = app.submit(
                    {
                        "tenant": "oracle",
                        "pair": pair.label,
                        "scale": "quick",
                        "config": {
                            **_TINY,
                            "fairness_levels": list(config.fairness_levels),
                            "policy": config.policy,
                            "seed": config.seed,
                        },
                    }
                )
                assert status == 202, body
                ids.append(body["job"])
            app.start()
            for jid in ids:
                body = _await_state(app, jid, "completed")
                assert body["attempts"] == 2  # the storm crashed attempt 1
        finally:
            app.stop()
    return [app.jobs[jid].result for jid in ids]


def _json_bytes(results, workdir, name):
    path = workdir / f"{name}.json"
    write_json(results, path)
    return path.read_bytes()


@settings(max_examples=20, deadline=None)
@given(grid=grids())
def test_every_execution_path_gives_the_inline_result(grid):
    pairs = grid["pairs"]
    with tempfile.TemporaryDirectory() as name:
        workdir = Path(name)
        cache = workdir / "cache"
        journal = workdir / "grid.ckpt"
        reference = _grid(grid, jobs=1)
        assert reference.ok

        paths = {}
        with faults.fault_injection(_plan(("corrupt", grid["corrupt"]))):
            cold = _grid(grid, jobs=2, cache_dir=cache)
        assert (cold.stats.hits, cold.stats.misses) == (0, len(pairs))
        paths["pool, cold cache"] = cold

        warm = _grid(grid, jobs=1, cache_dir=cache)
        assert (warm.stats.hits, warm.stats.misses) == (len(pairs) - 1, 1)
        assert warm.stats.corrupt == 1
        paths["warm cache, one entry quarantined"] = warm

        faulted = _plan(*grid["task_faults"], ("jtear", 0, grid["tears"]))
        jobs = grid["faulted_jobs"]
        with faults.fault_injection(faulted):
            degraded = _grid(
                grid, jobs=jobs, retries=0, on_failure="degrade",
                checkpoint=journal,
            )
        # A crash preempts a NaN drawn for the same task.
        expected_failures = {
            index: "crash" if ("crash", index) in grid["task_faults"]
            else "invariant"
            for _kind, index in grid["task_faults"]
        }
        assert {f.index: f.reason for f in degraded.failures} == \
            expected_failures
        assert degraded.incomplete_pairs
        resumed = _grid(grid, jobs=jobs, checkpoint=journal, resume=True)
        assert resumed.ok and resumed.resumed_tasks > 0
        paths["faulted, then resumed"] = resumed

        with telemetry.tracing(telemetry.RingBufferSink()):
            paths["traced"] = _grid(grid, jobs=2)

        expected = reference.results
        expected_bytes = _json_bytes(expected, workdir, "inline")
        for label, outcome in paths.items():
            assert outcome.results == expected, label
            assert _json_bytes(outcome.results, workdir, "path") == \
                expected_bytes, label
        service = _service_results(grid, workdir)
        assert service == expected, "service"
        assert _json_bytes(service, workdir, "service") == expected_bytes
