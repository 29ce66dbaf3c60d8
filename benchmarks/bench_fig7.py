"""Benchmark: Figure 7 (throughput degradation due to enforcement).

Times and regenerates normalized throughput and forced-switch rates per
pair. The paper's averages are asserted in
tests/conformance/test_paper_numbers.py.
"""

import pytest

from conftest import write_result
from repro.experiments import fig7


@pytest.fixture(scope="module")
def result(eval_config, pair_grid):
    return fig7.run(eval_config, pairs=pair_grid)


def test_fig7_regeneration(benchmark, result, results_dir):
    rendered = benchmark.pedantic(
        lambda: fig7.render(result), rounds=3, iterations=1
    )
    write_result(results_dir, "fig7", rendered)
    assert "norm tput" in rendered
