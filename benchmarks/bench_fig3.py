"""Benchmark: Figure 3 (analytical fairness/throughput tradeoff).

Times the sweep of F through the closed-form model for the paper's
legend cases. The envelope is asserted in
tests/conformance/test_paper_numbers.py.
"""

from conftest import write_result
from repro.experiments import fig3


def test_fig3_sweep(benchmark, results_dir):
    result = benchmark.pedantic(fig3.run, rounds=5, iterations=1)
    write_result(results_dir, "fig3", fig3.render(result))
    assert len(result.series) == len(fig3.PAPER_CASES)
