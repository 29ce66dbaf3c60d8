"""NoC-style deficit-round-robin arbitration as a switch policy.

Deficit Round Robin (Shreedhar & Varghese, SIGCOMM 1995) serves flows
in rounds: each flow's deficit counter is topped up by a fixed
*quantum* per round and drained by the bytes it sends; unused credit
carries over. Fair packet scheduling work for networks-on-chip (Wang
et al.) applies the same discipline to switch ports, which maps
directly onto SOE switch arbitration: a dispatch is a round, retired
instructions are the bytes, and the grant size is the quantum of
Eq. 2 in Shreedhar & Varghese (1995) with every thread weighted
equally.

The contrast with the paper's mechanism is deliberate: DRR grants every
thread the *same* fixed quantum, whereas Eq. 9 sizes each quota from
the thread's estimated single-thread IPC. DRR therefore equalizes
retired instructions per unit of arbitration, not slowdowns -- another
point on the fairness/throughput frontier.
"""

from __future__ import annotations

from repro.core.deficit import DeficitPolicy

__all__ = ["DrrArbiterPolicy"]

#: Default per-dispatch instruction quantum. Of the order of the
#: inter-miss instruction counts of the evaluation workloads, so the
#: arbiter neither thrashes (tiny quantum) nor degenerates into
#: miss-only switching (huge quantum).
DEFAULT_QUANTUM = 5_000.0


class DrrArbiterPolicy(DeficitPolicy):
    """Deficit round robin over switch grants.

    Every dispatch grants the thread ``quantum`` instructions on top of
    any carried-over deficit; the thread is forced out when the credit
    is spent. Miss-induced early switches leave the remainder as
    carried-over credit, exactly like the paper's deficit counters --
    the difference is solely the fixed, estimate-free grant size, which
    no ``Delta`` boundary ever changes.
    """

    def __init__(self, num_threads: int, quantum: float = DEFAULT_QUANTUM) -> None:
        super().__init__(num_threads, quota=float(quantum))

    @property
    def quantum(self) -> float:
        return self._quotas[0]
