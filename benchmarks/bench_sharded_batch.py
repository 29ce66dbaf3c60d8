"""Benchmark: sharded multi-core batch execution vs one-process batch.

Times ``run_grid --shards`` on the full default evaluation grid two
ways -- the vectorized batch backend in one process, and the same runs
partitioned into lane-contiguous shards executed by supervised pool
workers. Correctness is anchored by unconditional bit-identity between
the two legs; the wall ratio is recorded, not gated (on a host with
fewer cores than workers the workers time-share -- same precedent as
``bench_parallel_grid``).
"""

import multiprocessing
import time

import pytest

from conftest import write_result
from repro.engine.backend import numpy_available
from repro.experiments.runner import ExecutionSettings, run_grid

pytestmark = pytest.mark.skipif(not numpy_available(), reason="needs numpy")

_JOBS = 4


def test_sharded_grid_end_to_end(benchmark, eval_config, results_dir):
    """``run_grid --shards`` on the full default grid: identity always,
    the wall ratio recorded."""
    start = time.perf_counter()
    single = run_grid(
        eval_config,
        settings=ExecutionSettings(jobs=1, backend="batch", shards=1),
    )
    single_s = time.perf_counter() - start

    start = time.perf_counter()
    sharded = benchmark.pedantic(
        lambda: run_grid(
            eval_config,
            settings=ExecutionSettings(
                jobs=_JOBS, backend="batch", shards=_JOBS
            ),
        ),
        rounds=1, iterations=1,
    )
    sharded_s = time.perf_counter() - start

    assert sharded.results == single.results
    write_result(
        results_dir,
        "sharded_batch",
        "\n".join([
            "Grid integration (--shards, full evaluation grid)",
            f"  jobs=1 shards=1:       {single_s:8.3f} s",
            f"  jobs={_JOBS} shards={_JOBS}:       {sharded_s:8.3f} s",
            f"  wall ratio:            {single_s / sharded_s:8.2f}x on "
            f"{multiprocessing.cpu_count()} core(s)",
        ]),
    )
