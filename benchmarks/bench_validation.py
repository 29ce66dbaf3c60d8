"""Benchmark: cross-simulator validation.

Times and checks the two validation layers: the segment engine against
the closed-form model (asserted in tests/conformance/), and the segment
engine against the detailed out-of-order core on matched workloads
(must agree within the microarchitectural effects the segment model
abstracts away -- we allow 15%).
"""

import pytest

from conftest import write_result
from repro.experiments import validation


def test_validation_model_vs_engine(benchmark, results_dir):
    result = benchmark.pedantic(
        lambda: validation.run(min_instructions=500_000),
        rounds=1, iterations=1,
    )
    write_result(results_dir, "validation_model_engine", validation.render(result))
    assert result.cases


def test_validation_engine_vs_detailed_core(benchmark, results_dir):
    result = benchmark.pedantic(
        lambda: validation.run(min_instructions=400_000, include_cpu=True),
        rounds=1, iterations=1,
    )
    assert result.cpu_cases
    for case in result.cpu_cases:
        assert case.relative_error < 0.15, case.label
    write_result(results_dir, "validation_engine_cpu", validation.render(result))
