"""The exact order and cycle of every load the core issues, pinned.

Issue is oldest-first among the reservation-station entries that are
due, and a load reaches the cache (``MemoryHierarchy.data_access``)
the cycle it issues. Recording the ``(address, now)`` of every such
call therefore pins the issue order and timing of the loads, whatever
route (rename, the wake wheel, a same-cycle wakeup) an entry took to
become due. A change to that bookkeeping that reorders or delays a
single load fails here by name, before it shows in the end-to-end
goldens.
"""

import hashlib

import pytest

from repro.core.controller import FairnessController, FairnessParams
from repro.cpu.machine import MachineConfig
from repro.cpu.pipeline import OooPipeline
from repro.workloads.tracegen import COMPUTE_SPEC, MEMORY_SPEC, MIXED_SPEC, make_trace

#: run -> (data_access calls, sha256 of their ``repr``'d list), all
#: recorded while the RS still issued from a wake heap and a ready heap.
DIGESTS = {
    "soe": (5964, "3105a391b5c3fac97e61d50f40ba6d21dfde2fe95a41829929ba086ab58fdcf3"),
    "soe-enforced": (
        4252, "1af1fd66ac145a363c19c215d53fb8f7caa57e04f7443ab9d146dba0bfa209c4"
    ),
    "single-thread": (
        825, "a09e6a9f12c85ac3fc8cb9d8c15f23aa0c055e81015e0a7fa079073ffa30c7c8"
    ),
    "zero-latency": (
        7884, "35456f4f66a55301696c21ad250df06d5ddb80e5abe0f20b2198afb339959934"
    ),
}

#: Zero-latency producers on the ALU, MUL and FP ports wake their
#: consumers, on any port, in the cycle they issue.
ZERO_LATENCY = MachineConfig(alu_latency=0, mul_latency=0, fp_latency=0)


def _runs():
    return {
        "soe": (
            [make_trace(MIXED_SPEC, seed=3, thread_index=0),
             make_trace(MEMORY_SPEC, seed=4, thread_index=1)],
            None,
            MachineConfig(),
        ),
        "soe-enforced": (
            [make_trace(COMPUTE_SPEC, seed=1, thread_index=0),
             make_trace(MEMORY_SPEC, seed=2, thread_index=1)],
            FairnessController(
                2, FairnessParams(fairness_target=0.5, sample_period=2_000.0)
            ),
            MachineConfig(),
        ),
        "single-thread": (
            [make_trace(COMPUTE_SPEC, seed=5, thread_index=0)], None, MachineConfig()
        ),
        "zero-latency": (
            [make_trace(MIXED_SPEC, seed=6, thread_index=0),
             make_trace(MEMORY_SPEC, seed=7, thread_index=1)],
            None,
            ZERO_LATENCY,
        ),
    }


def _data_accesses(programs, policy, config):
    pipeline = OooPipeline(programs, config=config, policy=policy)
    hierarchy = pipeline.hierarchy
    real = hierarchy.data_access
    calls = []

    def record(address, now):
        calls.append((address, now))
        return real(address, now)

    # The run binds ``hierarchy.data_access`` once, at its start.
    hierarchy.data_access = record
    pipeline.run(min_instructions=4_000, warmup_instructions=1_000)
    return calls


@pytest.mark.parametrize("run", sorted(DIGESTS))
def test_load_issue_sequence_is_pinned(run):
    programs, policy, config = _runs()[run]
    calls = _data_accesses(programs, policy, config)
    digest = hashlib.sha256(repr(calls).encode()).hexdigest()
    assert (len(calls), digest) == DIGESTS[run], (
        f"{run}: the core issued its loads in a different order or cycle"
    )
