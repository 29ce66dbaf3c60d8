"""Per-tenant deficit-round-robin queueing with admission control.

The paper keeps two SMT threads fair with per-thread deficit counters
(Eq. 9): each thread earns quota every sample period, spends it as it
retires instructions, and carries the shortfall forward. The service
applies the same discipline one level up with deficit round robin.
Every job costs one unit and every visit credits one unit, so each
visit to a backlogged tenant pays for exactly one job and leaves no
credit to carry: the scheduler visits the backlogged tenants in a fixed
rotation and dispatches one job per visit. Over any backlogged interval
no tenant is starved, and the dispatch counts of any two
continuously-backlogged tenants differ by at most 1.

Admission is *bounded*: each tenant's queue holds at most ``depth``
jobs. A submission past that is rejected immediately with an explicit
``retry_after_s`` hint (HTTP 429) rather than buffered -- unbounded
queues convert overload into silent latency and eventual OOM, the two
failure modes a long-running service cannot have.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.service.jobs import Job

__all__ = ["Admission", "DrrScheduler"]


@dataclass(frozen=True)
class Admission:
    """The verdict on one submission attempt."""

    accepted: bool
    #: Queue depth after the decision (the tenant's backlog).
    depth: int
    #: Client backoff hint when rejected (None when accepted).
    retry_after_s: Optional[float] = None


class DrrScheduler:
    """Deficit round robin over per-tenant bounded FIFO queues.

    Single-threaded by design: the service serializes access under its
    state lock, so the scheduler itself carries no synchronization.
    """

    def __init__(
        self,
        *,
        depth: int = 64,
        retry_after_base_s: float = 0.5,
    ) -> None:
        if depth < 1:
            raise ConfigurationError("queue depth must be >= 1")
        self.depth = depth
        self.retry_after_base_s = retry_after_base_s
        self._lanes: Dict[str, Deque[Job]] = {}
        #: Fixed visit rotation: tenants in first-seen order. A stable
        #: order keeps scheduling a pure function of the submissions.
        self._rotation: List[str] = []
        self._cursor = 0

    # -- introspection -----------------------------------------------------

    @property
    def backlog(self) -> int:
        """Queued jobs across every tenant."""
        return sum(len(lane) for lane in self._lanes.values())

    def tenant_depth(self, tenant: str) -> int:
        lane = self._lanes.get(tenant)
        return len(lane) if lane else 0

    def depths(self) -> Dict[str, int]:
        """Per-tenant backlog snapshot (the /v1/stats payload)."""
        return {tenant: len(lane) for tenant, lane in self._lanes.items()}

    # -- admission ----------------------------------------------------------

    def offer(self, job: Job) -> Admission:
        """Admit ``job`` to its tenant's queue, or reject it.

        Rejection carries a retry hint proportional to the backlog the
        client is behind -- a deterministic function of queue state, so
        identical load patterns produce identical advice.
        """
        tenant = job.spec.tenant
        lane = self._lanes.get(tenant)
        if lane is None:
            lane = deque()
            self._lanes[tenant] = lane
            self._rotation.append(tenant)
        if len(lane) >= self.depth:
            return Admission(
                accepted=False,
                depth=len(lane),
                retry_after_s=self.retry_after_base_s * len(lane),
            )
        lane.append(job)
        return Admission(accepted=True, depth=len(lane))

    def remove(self, job: Job) -> bool:
        """Drop a queued job (deadline expiry); True if it was queued."""
        lane = self._lanes.get(job.spec.tenant)
        if lane is None:
            return False
        try:
            lane.remove(job)
        except ValueError:
            return False
        return True

    # -- scheduling ---------------------------------------------------------

    def next_job(self) -> Optional[Job]:
        """Dispatch the next job under DRR, or None if all queues idle.

        One call performs at most one full rotation: the first
        backlogged lane visited yields its head-of-line job, so the
        result is None only when every queue is empty. An empty lane is
        skipped and keeps no credit, which is what stops a long-idle
        tenant from hoarding credit and then monopolizing the pool --
        the same reason the paper resets its counters at
        enforcement-mode boundaries.
        """
        for _ in range(len(self._rotation)):
            lane = self._lanes[self._rotation[self._cursor]]
            self._cursor = (self._cursor + 1) % len(self._rotation)
            if lane:
                return lane.popleft()
        return None
