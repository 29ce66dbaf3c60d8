"""Benchmark: Section 6 (time sharing vs fairness enforcement).

Times and regenerates the discussion's quantitative example. Its
numbers are asserted in tests/conformance/test_paper_numbers.py.
"""

import pytest

from conftest import write_result
from repro.experiments import timesharing


@pytest.fixture(scope="module")
def result():
    return timesharing.run(min_instructions=1_000_000)


def test_timesharing_regeneration(benchmark, results_dir):
    timed = benchmark.pedantic(
        lambda: timesharing.run(min_instructions=400_000),
        rounds=1, iterations=1,
    )
    assert timed.points
    full = timesharing.run(min_instructions=1_000_000)
    write_result(results_dir, "timesharing", timesharing.render(full))
