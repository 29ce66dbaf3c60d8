"""Tests for the grid workloads' task-latency hooks."""

import time

import pytest

from perfbench import grid


def _nap(item):
    time.sleep(item)
    return item


@pytest.mark.parametrize("jobs", [1, 2])
def test_each_task_is_timed_from_dispatch_to_completion(jobs):
    from repro.experiments.supervisor import Supervisor

    original = Supervisor.__dict__["_accept"]
    tasks = [(index, 0.02) for index in range(4)]
    with grid.task_latencies() as latencies:
        outcome = Supervisor(_nap, tasks, jobs=jobs).run()
    assert sorted(outcome.results) == [0, 1, 2, 3]
    assert len(latencies) == 4
    # Inline tasks run one after another, each timed on its own; worker
    # processes add their start-up, never a neighbour's run.
    assert all(0.02 <= value < 1.0 for value in latencies)
    assert Supervisor.__dict__["_accept"] is original
