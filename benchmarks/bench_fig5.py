"""Benchmark: Figure 5 (detailed examination of gcc:eon at F = 1/4).

Times and regenerates the three time-series panels. Their qualitative
claims are asserted in tests/conformance/test_paper_numbers.py.
"""

import pytest

from conftest import write_result
from repro.experiments import fig5
from repro.experiments.common import EvalConfig
from repro.workloads.pairs import BenchmarkPair


@pytest.fixture(scope="module")
def config():
    return EvalConfig(min_instructions=1_200_000, warmup_instructions=0.0)


@pytest.fixture(scope="module")
def result(config):
    return fig5.run(BenchmarkPair("gcc", "eon"), config, fairness_target=0.25)


def test_fig5_series_regeneration(benchmark, config, results_dir, result):
    quick = EvalConfig(
        sample_period=100_000.0, min_instructions=400_000, warmup_instructions=0.0,
        st_min_instructions=300_000.0,
    )
    timed = benchmark.pedantic(
        lambda: fig5.run(BenchmarkPair("gcc", "eon"), quick, 0.25),
        rounds=1, iterations=1,
    )
    assert len(timed.times) > 2
    write_result(results_dir, "fig5", fig5.render(result))
