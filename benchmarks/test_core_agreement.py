"""Segment engine vs detailed out-of-order core on matched workloads.

The two substrates must agree within the microarchitectural effects the
segment model abstracts away (15% total-IPC error). This takes about a
minute, so it runs in CI's benchmark job rather than in tier-1::

    PYTHONPATH=src python -m pytest benchmarks/test_core_agreement.py -q
"""

import dataclasses

from repro.experiments import validation
from repro.experiments.common import EvalConfig


def test_engine_agrees_with_detailed_core():
    config = dataclasses.replace(EvalConfig(), st_min_instructions=400_000)
    result = validation.run(include_cpu=True, config=config)
    assert result.cpu_cases
    for case in result.cpu_cases:
        assert case.relative_error < 0.15, case.label
