"""Segment engine vs detailed out-of-order core on matched workloads.

The two substrates must agree within the microarchitectural effects the
segment model abstracts away (15% total-IPC error). This takes about a
minute, so it runs in CI's benchmark job rather than in tier-1::

    PYTHONPATH=src python -m pytest benchmarks/test_core_agreement.py -q
"""

from repro.experiments import validation


def test_engine_agrees_with_detailed_core():
    result = validation.run(min_instructions=400_000, include_cpu=True)
    assert result.cpu_cases
    for case in result.cpu_cases:
        assert case.relative_error < 0.15, case.label
