"""Benchmark: Figure 8 (achieved fairness, left and right panels).

Times and regenerates the per-run achieved-fairness series (runs ordered
by their unenforced fairness) and the truncated averages. The paper's
claims are asserted in tests/conformance/test_paper_numbers.py.
"""

import pytest

from conftest import write_result
from repro.experiments import fig8


@pytest.fixture(scope="module")
def result(eval_config, pair_grid):
    return fig8.run(eval_config, pairs=pair_grid)


def test_fig8_regeneration(benchmark, result, results_dir):
    rendered = benchmark.pedantic(
        lambda: fig8.render(result), rounds=3, iterations=1
    )
    write_result(results_dir, "fig8", rendered)
    assert "Figure 8" in rendered
