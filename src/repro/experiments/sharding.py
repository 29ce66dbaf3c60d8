"""Deterministic shard planning for sharded batch dispatch.

The vectorized batch backend (:mod:`repro.engine.batch`) runs a whole
spec batch in-process on one core; the supervised pool runs tasks on
many cores. This module is the seam that composes the two: it
partitions a batch into **lane-contiguous shards** that pool workers
execute with the vectorized backend (the grid runner ships each shard
as compact task descriptors, and the worker re-derives its streams
from their seeds).

Determinism contract (pinned by the differential tests and stated in
``docs/PERFORMANCE.md``):

* :func:`plan_shards` is a pure function of ``(total, shards)`` --
  shard ``k`` always covers the same contiguous global index range,
  sizes differ by at most one, and earlier shards are never smaller
  than later ones;
* because a batched run's result is independent of which other runs
  share its batch (the batch-no-coupling property, pinned in
  ``tests/properties/test_batch_properties.py``), executing the shards
  separately and merging the per-shard results back in global-index
  order is **bit-identical** to the single-process batch -- at any
  shard count, any job count, and across interrupt/resume;
* :meth:`ShardPlan.digest` names the plan content-addressably so the
  checkpoint journal can record which decomposition produced a run's
  records (informational: resume compatibility is still governed by
  the grid fingerprint alone, so a journal written at ``--shards 4``
  resumes fine at ``--shards 1``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Tuple, Union

from repro.engine.backend import numpy_available
from repro.errors import ConfigurationError

__all__ = [
    "SHARD_PLAN_VERSION",
    "MIN_RUNS_PER_SHARD",
    "ShardPlan",
    "plan_shards",
    "resolve_shard_count",
]

#: Bump when the plan layout (and thus its digest) changes meaning.
SHARD_PLAN_VERSION = 1

#: ``--shards auto`` never cuts shards smaller than this: below it the
#: per-shard dispatch overhead (worker round-trip, result frame) eats
#: the win and the in-process batch is simply faster.
MIN_RUNS_PER_SHARD = 4


# ---------------------------------------------------------------------------
# Shard planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic partition of ``total`` runs into contiguous shards.

    ``bounds`` has one more entry than there are shards; shard ``k``
    covers global indices ``[bounds[k], bounds[k+1])``.
    """

    total: int
    bounds: Tuple[int, ...]

    @property
    def num_shards(self) -> int:
        return len(self.bounds) - 1

    def positions(self, shard: int) -> range:
        """Global indices covered by shard ``shard``."""
        return range(self.bounds[shard], self.bounds[shard + 1])

    def digest(self) -> str:
        """Content address of the plan (stable across processes)."""
        payload = repr((SHARD_PLAN_VERSION, self.total, self.bounds))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def plan_shards(total: int, shards: int) -> ShardPlan:
    """Partition ``total`` runs into ``shards`` lane-contiguous shards.

    Sizes differ by at most one (the remainder goes to the earliest
    shards); a request for more shards than runs degrades to one run
    per shard. Pure and deterministic: the same arguments always yield
    the same plan, which is what keeps sharded execution mergeable in
    global-index order and the plan digest meaningful.
    """
    if total < 0:
        raise ConfigurationError("cannot plan shards for a negative batch")
    if shards < 1:
        raise ConfigurationError("shard count must be >= 1")
    count = min(shards, total) if total else 1
    base, remainder = divmod(total, count)
    bounds = [0]
    for shard in range(count):
        bounds.append(bounds[-1] + base + (1 if shard < remainder else 0))
    return ShardPlan(total=total, bounds=tuple(bounds))


def resolve_shard_count(
    shards: Union[int, str], *, jobs: int, total: int
) -> int:
    """The effective shard count for a batch of ``total`` runs.

    ``"auto"`` falls back to 1 (= the in-process batch) whenever
    sharding cannot pay for itself: a single worker, a batch too small
    to give every worker :data:`MIN_RUNS_PER_SHARD` runs, or no numpy
    (workers could not run the vectorized backend at all). An explicit
    integer is honored, clamped to the batch size.
    """
    if isinstance(shards, str):
        if shards != "auto":
            raise ConfigurationError(
                f"shards must be 'auto' or a positive integer, got {shards!r}"
            )
        if jobs <= 1 or total < 2 * MIN_RUNS_PER_SHARD or not numpy_available():
            return 1
        return max(1, min(jobs, total // MIN_RUNS_PER_SHARD))
    if shards < 1:
        raise ConfigurationError("shards must be >= 1")
    return min(shards, total) if total else 1
