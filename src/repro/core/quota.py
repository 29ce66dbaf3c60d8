"""Computation of the per-thread instruction quota ``IPSw_j`` (Eq. 9).

Every ``Delta`` cycles, the fairness controller feeds the latest
per-thread estimates to :func:`quotas_from_estimates`, which applies
Eq. 9:

    ``IPSw_j = min(IPM_j, IPC_ST_j * (CPM_min + miss_lat) / F)``

and returns the quota each thread may retire before a forced switch.
Threads with no usable estimate (a starved thread that has not produced
a sample yet) get an infinite quota -- forcing them out early is the one
thing the mechanism must never do to a thread it knows nothing about.

Two generalizations beyond the paper's base mechanism, both direct
consequences of the Eq. 7 derivation:

* **Per-thread event latencies** (Section 6): with measured latencies
  ``L_j`` the scaling constant becomes ``min_j (CPM_j + L_j)``, which
  reduces to the paper's ``CPM_min + miss_lat`` for a uniform latency.
  Any common constant preserves the fairness guarantee; this choice
  keeps the fastest-missing thread's quota at its IPM, i.e. maximally
  permissive.
* **Weights** (prioritized fairness): ``IPSw_j ∝ w_j * IPC_ST_j``
  targets speedup *ratios* of ``w_j : w_k`` instead of 1 : 1 -- the
  fairness guarantee then applies to the weighted speedups
  ``speedup_j / w_j``.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.core.estimator import ThreadEstimate
from repro.errors import ConfigurationError

__all__ = ["MIN_QUOTA", "quotas_from_estimates"]

#: Lower bound on any finite quota, in instructions. A quota below one
#: instruction would switch a thread out before it retires anything,
#: which can never help fairness; the paper's hardware would round up
#: anyway.
MIN_QUOTA = 1.0


def quotas_from_estimates(
    estimates: Sequence[ThreadEstimate],
    fairness_target: float,
    miss_lat: float,
    weights: Optional[Sequence[float]] = None,
) -> list[float]:
    """Eq. 7: quotas ``IPSw_j ∝ w_j · IPC_ST_j`` from a window's estimates.

    The speedup-ratio derivation (Eq. 7) shows that *any* common scaling
    constant ``C`` in ``IPSw_j = IPC_ST_j · C / F`` equalizes speedups;
    this function implements that general form — per-thread measured
    latencies and priority weights included — and reduces exactly to the
    paper's Eq. 9 instantiation (``C = CPM_min + miss_lat``, equal
    weights; see :func:`repro.core.model.compute_ipsw`).

    Parameters
    ----------
    estimates:
        Latest :class:`~repro.core.estimator.ThreadEstimate` per thread.
        An estimate's ``miss_lat`` field, when set, overrides the
        constant for that thread (measured event latency).
    fairness_target:
        The ``F`` parameter in ``[0, 1]``; 0 disables forced switches.
    miss_lat:
        Default memory access latency in cycles.
    weights:
        Optional per-thread priority weights (all finite and positive).
        ``None`` means equal weights -- the paper's mechanism.

    Returns
    -------
    list of float
        One quota per thread, each finite one at least
        :data:`MIN_QUOTA`; ``math.inf`` means "switch only on misses or
        the maximum-cycles quota".
    """
    if not estimates:
        raise ConfigurationError("at least one estimate is required")
    if not 0.0 <= fairness_target <= 1.0:
        raise ConfigurationError(
            f"fairness target must be in [0, 1], got {fairness_target}"
        )
    if weights is not None:
        if len(weights) != len(estimates):
            raise ConfigurationError(
                f"expected {len(estimates)} weights, got {len(weights)}"
            )
        if not all(0 < w < math.inf for w in weights):
            raise ConfigurationError(
                f"weights must be finite and positive, got {list(weights)}"
            )
    # repro-lint: disable=RL004 - F=0 is an exact, validated sentinel input
    if fairness_target == 0.0:
        return [math.inf] * len(estimates)

    def latency_of(estimate: ThreadEstimate) -> float:
        return miss_lat if estimate.miss_lat is None else estimate.miss_lat

    usable = [
        (index, e) for index, e in enumerate(estimates) if e.ipc_st > 0
    ]
    if not usable:
        return [math.inf] * len(estimates)
    # The scaling constant. Note (CPM_j + L_j) = IPM_j / IPC_ST_j, so
    # the unweighted minimum is the paper's CPM_min + miss_lat and it
    # pins the fastest-missing thread's quota at its IPM when F = 1.
    # Dividing by the weight keeps that pinning correct when the
    # IPM-constrained thread is the *up-weighted* one: the other
    # threads' quotas shrink to preserve the target ratio instead of
    # the constrained quota being silently clipped.
    def weight_of(index: int) -> float:
        return 1.0 if weights is None else weights[index]

    scale = min(
        (e.cpm + latency_of(e)) / weight_of(index) for index, e in usable
    )

    quotas = []
    for index, estimate in enumerate(estimates):
        if estimate.ipc_st <= 0:
            quotas.append(math.inf)
            continue
        quota = weight_of(index) * estimate.ipc_st * scale / fairness_target
        quota = min(estimate.ipm, quota)
        quotas.append(max(quota, MIN_QUOTA))
    return quotas
