"""Benchmark: Table 2 (Example 2 with and without enforcement).

Times the paper's worked example from both the closed-form model and
the segment engine and regenerates the table. The table's headline
numbers are asserted in tests/conformance/test_paper_numbers.py.
"""

import pytest

from conftest import write_result
from repro.experiments import table2


@pytest.fixture(scope="module")
def result():
    return table2.run(min_instructions=1_500_000, warmup=1_000_000)


def test_table2_regeneration(benchmark, result, results_dir):
    rendered = benchmark.pedantic(
        lambda: table2.render(result), rounds=3, iterations=1
    )
    write_result(results_dir, "table2", rendered)
    assert "analytical model" in rendered


def test_table2_simulated_example2_run(benchmark):
    # Time a full simulated Example 2 grid. The warmup must outlast the
    # first Delta window (~600k instructions at this pair's throughput)
    # for the quotas to be active over the whole measured window.
    simulated = benchmark.pedantic(
        lambda: table2.run(min_instructions=1_000_000, warmup=700_000),
        rounds=1, iterations=1,
    )
    assert simulated.simulated
