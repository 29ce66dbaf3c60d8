"""The paper's primary contribution: SOE fairness model and enforcement.

Submodules
----------
model
    Closed-form analytical model (Eqs. 1-10).
fairness
    The fairness metric (Eq. 4) and related single-number metrics.
counters
    One window's hardware counters (``Instrs``, ``Cycles``, ``Misses``).
estimator
    Runtime single-thread IPC estimation (Eqs. 11-13).
quota
    The ``IPSw_j`` quota computation (Eq. 9).
deficit
    :class:`DeficitPolicy`, the counters and deficit counters (which
    maintain the quota as a long-run average) behind every
    deficit-based policy.
policy
    The engine-agnostic :class:`SwitchPolicy` interface plus baselines.
controller
    :class:`FairnessController`, the full feedback mechanism.
policies
    The policy zoo: registry of named, parameterized switch policies.
icount / lfoc / drr
    Comparison policies (ICOUNT priority, LFOC clustering, DRR
    arbitration) evaluated against the paper's mechanism.
"""

from repro.core.controller import FairnessController, FairnessParams, SamplePoint
from repro.core.counters import CounterSample
from repro.core.deficit import DeficitPolicy
from repro.core.estimator import IpcStEstimator, ThreadEstimate
from repro.core.fairness import (
    fairness,
    weighted_fairness,
    fairness_from_ipcs,
    harmonic_mean_fairness,
    speedups,
    weighted_speedup,
)
from repro.core.drr import DrrArbiterPolicy
from repro.core.icount import IcountPolicy
from repro.core.latency import MissLatencyMonitor
from repro.core.lfoc import LfocClusterPolicy
from repro.core.model import SoeModel, ThreadParams, compute_ipsw, single_thread_ipc
from repro.core.policies import (
    PolicyConfig,
    PolicyParam,
    PolicySpec,
    get_policy,
    policy_names,
    register_policy,
    render_policy_table,
)
from repro.core.policy import NoFairnessPolicy, SwitchPolicy, TimeSharingPolicy
from repro.core.quota import quotas_from_estimates

__all__ = [
    "CounterSample",
    "DeficitPolicy",
    "DrrArbiterPolicy",
    "FairnessController",
    "FairnessParams",
    "IcountPolicy",
    "IpcStEstimator",
    "LfocClusterPolicy",
    "MissLatencyMonitor",
    "NoFairnessPolicy",
    "PolicyConfig",
    "PolicyParam",
    "PolicySpec",
    "SamplePoint",
    "SoeModel",
    "SwitchPolicy",
    "ThreadEstimate",
    "ThreadParams",
    "TimeSharingPolicy",
    "compute_ipsw",
    "fairness",
    "fairness_from_ipcs",
    "get_policy",
    "harmonic_mean_fairness",
    "policy_names",
    "quotas_from_estimates",
    "register_policy",
    "render_policy_table",
    "single_thread_ipc",
    "speedups",
    "weighted_fairness",
    "weighted_speedup",
]
