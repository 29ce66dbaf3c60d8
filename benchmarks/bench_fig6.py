"""Benchmark: Figure 6 (per-pair SOE throughput, stacked by thread).

Times and regenerates the 16-pair throughput chart at F = 0, 1/4, 1/2,
1 plus the single-thread references. The speedup ladder is asserted in
tests/conformance/test_paper_numbers.py.
"""

from conftest import write_result
from repro.experiments import fig6
from repro.experiments.common import run_pair
from repro.workloads.pairs import BenchmarkPair


def test_fig6_regeneration(benchmark, eval_config, pair_grid, results_dir):
    result = benchmark.pedantic(
        lambda: fig6.run(eval_config, pairs=pair_grid), rounds=3, iterations=1
    )
    write_result(results_dir, "fig6", fig6.render(result))
    assert len(result.pairs) == 16


def test_fig6_single_pair_run_cost(benchmark, eval_config):
    # The per-pair unit of the grid, timed end-to-end.
    result = benchmark.pedantic(
        lambda: run_pair(BenchmarkPair("gcc", "eon"), eval_config),
        rounds=1, iterations=1,
    )
    assert result.baseline.total_ipc > 0
