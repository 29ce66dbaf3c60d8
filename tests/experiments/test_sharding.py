"""Shard planning: the determinism contract sharded dispatch relies on.

The planner tests pin what the merge relies on: shard ``k`` always
covers the same contiguous index range, and ``--shards auto`` falls
back to the in-process batch whenever sharding cannot pay for itself.
Sharded grid execution itself (crash, retry, fallback, drain, resume)
is covered by ``test_sharded_grid.py``.
"""

import pytest

pytest.importorskip("numpy")

from repro.errors import ConfigurationError
from repro.experiments import sharding
from repro.experiments.sharding import (
    MIN_RUNS_PER_SHARD,
    plan_shards,
    resolve_shard_count,
)


class TestPlanShards:
    def test_contiguous_cover_with_remainder_up_front(self):
        plan = plan_shards(10, 3)
        assert plan.bounds == (0, 4, 7, 10)
        assert plan.num_shards == 3
        assert [list(plan.positions(k)) for k in range(3)] == [
            [0, 1, 2, 3], [4, 5, 6], [7, 8, 9],
        ]

    def test_sizes_differ_by_at_most_one_and_never_grow(self):
        for total in range(1, 40):
            for shards in range(1, 12):
                plan = plan_shards(total, shards)
                sizes = [len(plan.positions(k)) for k in range(plan.num_shards)]
                assert sum(sizes) == total
                assert max(sizes) - min(sizes) <= 1
                assert sizes == sorted(sizes, reverse=True)

    def test_more_shards_than_runs_degrades_to_one_run_each(self):
        plan = plan_shards(3, 8)
        assert plan.num_shards == 3
        assert plan.bounds == (0, 1, 2, 3)

    def test_empty_batch_plans_one_empty_shard(self):
        plan = plan_shards(0, 4)
        assert plan.num_shards == 1
        assert list(plan.positions(0)) == []

    def test_deterministic_and_digest_stable(self):
        assert plan_shards(17, 4) == plan_shards(17, 4)
        assert plan_shards(17, 4).digest() == plan_shards(17, 4).digest()
        digests = {
            plan_shards(17, 4).digest(),
            plan_shards(17, 5).digest(),
            plan_shards(18, 4).digest(),
        }
        assert len(digests) == 3

    def test_rejects_nonsense(self):
        with pytest.raises(ConfigurationError):
            plan_shards(-1, 2)
        with pytest.raises(ConfigurationError):
            plan_shards(4, 0)


class TestResolveShardCount:
    def test_explicit_integer_is_honored_and_clamped(self):
        assert resolve_shard_count(3, jobs=1, total=100) == 3
        assert resolve_shard_count(8, jobs=2, total=5) == 5
        assert resolve_shard_count(8, jobs=2, total=0) == 1

    def test_auto_needs_parallelism_and_a_big_enough_batch(self):
        assert resolve_shard_count("auto", jobs=1, total=1000) == 1
        assert resolve_shard_count(
            "auto", jobs=4, total=2 * MIN_RUNS_PER_SHARD - 1
        ) == 1
        assert resolve_shard_count("auto", jobs=4, total=100) == 4
        # Never more shards than MIN_RUNS_PER_SHARD-sized slices.
        assert resolve_shard_count(
            "auto", jobs=16, total=3 * MIN_RUNS_PER_SHARD
        ) == 3

    def test_auto_without_numpy_stays_in_process(self, monkeypatch):
        monkeypatch.setattr(sharding, "numpy_available", lambda: False)
        assert resolve_shard_count("auto", jobs=8, total=1000) == 1

    def test_rejects_nonsense(self):
        with pytest.raises(ConfigurationError):
            resolve_shard_count("fastest", jobs=2, total=10)
        with pytest.raises(ConfigurationError):
            resolve_shard_count(0, jobs=2, total=10)
