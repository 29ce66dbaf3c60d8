"""Benchmark: mechanism ablations (Delta, quotas, deficit cap,
miss-latency misestimation) on the gcc:eon pair.

The ablations' paper claims are asserted in
tests/conformance/test_paper_numbers.py.
"""

import pytest

from conftest import write_result
from repro.experiments import ablations
from repro.experiments.common import EvalConfig
from repro.workloads.pairs import BenchmarkPair


@pytest.fixture(scope="module")
def result():
    return ablations.run(
        BenchmarkPair("gcc", "eon"), EvalConfig(), fairness_target=0.5
    )


def test_ablations_regeneration(benchmark, results_dir):
    quick = EvalConfig(
        sample_period=100_000.0,
        min_instructions=500_000.0,
        warmup_instructions=250_000.0,
        st_min_instructions=400_000.0,
    )
    timed = benchmark.pedantic(
        lambda: ablations.run(BenchmarkPair("gcc", "eon"), quick, 0.5),
        rounds=1, iterations=1,
    )
    assert timed.points
    full = ablations.run(BenchmarkPair("gcc", "eon"), EvalConfig(), 0.5)
    write_result(results_dir, "ablations", ablations.render(full))
