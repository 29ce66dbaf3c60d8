"""LFOC-style cluster-then-enforce fairness as a switch policy.

LFOC/LFOC+ (Garcia-Garcia et al.) first *classify* threads by cache
sensitivity -- cache-hungry vs light -- and then apply fairness
enforcement per cluster rather than globally. The SOE analogue uses the
mechanism's own counters: a thread's estimated IPM (instructions per
switch-causing miss, Eq. 11) is the natural hunger signal. A low IPM
means the thread misses often (cache-hungry); a high IPM means it
rarely yields on its own (light).

:class:`LfocClusterPolicy` samples the hardware counters every
``Delta`` cycles like the paper's controller, splits threads at an IPM
threshold into a *hungry* and a *light* cluster, and applies the Eq. 7
quota computation per cluster role:

* **light** threads -- the ones that rarely yield and can therefore
  starve everyone else -- get the globally scaled quota (the scale
  constant computed over *all* threads), which is what protects the
  hungry cluster from them;
* **hungry** threads get cluster-local quotas (the scale constant
  computed over the hungry subset only), i.e. fairness is maintained
  *within* the cluster; a thread alone in the hungry cluster runs
  unenforced -- it already yields on every miss, and forcing it out
  earlier can only hurt.

This is the clustering idea of Garcia-Garcia et al. transplanted onto
the paper's quota machinery: classify first, then enforce with
cluster-appropriate aggressiveness.
"""

from __future__ import annotations

import math

from repro.core.deficit import DeficitPolicy
from repro.core.estimator import IpcStEstimator, ThreadEstimate
from repro.core.quota import quotas_from_estimates
from repro.errors import ConfigurationError

__all__ = ["LfocClusterPolicy"]

#: Default hungry/light IPM split. Sits between the evaluation
#: workloads' miss-heavy profiles (IPM of a few hundred to a few
#: thousand) and the compute-bound ones (tens of thousands).
DEFAULT_IPM_THRESHOLD = 5_000.0


class LfocClusterPolicy(DeficitPolicy):
    """Cluster threads by IPM profile, enforce quotas per cluster."""

    def __init__(
        self,
        num_threads: int,
        fairness_target: float,
        miss_lat: float = 300.0,
        sample_period: float = 250_000.0,
        ipm_threshold: float = DEFAULT_IPM_THRESHOLD,
    ) -> None:
        if not 0.0 <= fairness_target <= 1.0:
            raise ConfigurationError(
                f"fairness target must be in [0, 1], got {fairness_target}"
            )
        if not (math.isfinite(miss_lat) and math.isfinite(sample_period)):
            raise ConfigurationError("miss_lat and sample_period must be finite")
        if miss_lat < 0:
            raise ConfigurationError("miss_lat must be non-negative")
        if not (ipm_threshold > 0):
            raise ConfigurationError("ipm_threshold must be positive")
        super().__init__(num_threads, sample_period=float(sample_period))
        self._fairness_target = float(fairness_target)
        self._miss_lat = float(miss_lat)
        self._ipm_threshold = float(ipm_threshold)
        self._estimator = IpcStEstimator(num_threads, miss_lat)
        self._clusters: tuple[tuple[int, ...], tuple[int, ...]] = ((), ())

    # ------------------------------------------------------------------
    # Introspection (used by tests and experiments)
    # ------------------------------------------------------------------
    @property
    def clusters(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(hungry, light)`` thread ids from the last ``Delta`` boundary."""
        return self._clusters

    def _cluster(
        self, estimates: list[ThreadEstimate]
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        hungry: list[int] = []
        light: list[int] = []
        for tid, estimate in enumerate(estimates):
            if estimate.ipm <= self._ipm_threshold:
                hungry.append(tid)
            else:
                light.append(tid)
        return tuple(hungry), tuple(light)

    # ------------------------------------------------------------------
    # SwitchPolicy interface
    # ------------------------------------------------------------------
    def on_boundary(self, now: float) -> None:
        """Re-cluster and recompute cluster-role quotas at a boundary."""
        estimates = self._estimator.update_all(self.sample_and_reset(now))
        hungry, light = self._cluster(estimates)
        self._clusters = (hungry, light)
        quotas = [math.inf] * self.num_threads
        if light:
            # Light threads are throttled on the global scale: their
            # quota is what keeps them from starving the hungry cluster.
            global_quotas = quotas_from_estimates(
                estimates,
                self._fairness_target,
                self._miss_lat,
            )
            for tid in light:
                quotas[tid] = global_quotas[tid]
        if len(hungry) >= 2:
            # Hungry threads only owe fairness to each other; a lone
            # hungry thread runs unenforced.
            cluster_quotas = quotas_from_estimates(
                [estimates[tid] for tid in hungry],
                self._fairness_target,
                self._miss_lat,
            )
            for tid, quota in zip(hungry, cluster_quotas):
                quotas[tid] = quota
        self._quotas = quotas
