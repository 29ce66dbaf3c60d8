"""Cycle-level out-of-order pipeline with SOE multithreading.

The pipeline models the paper's P6-derived core (Section 4.1):

* 4-wide fetch / rename / retire; ROB, RS, load and store buffers;
* gshare + BTB branch prediction (shared, not flushed on switch);
* L1I/L1D, unified L2, i/dTLB with page walks, pipelined bus, fixed
  300-cycle memory; clustered misses to one line merge (overlap);
* retirement-stage SOE trigger: when the ROB head is a load flagged
  with an unresolved L2 miss, the active thread is switched out, the
  pipeline drains (``drain_latency``), and in-flight uops are returned
  to the thread's trace cursor for later refetch;
* senior stores keep draining to the cache after a switch, and loads
  forward only from same-thread stores;
* the attached :class:`~repro.core.policy.SwitchPolicy` adds the
  fairness mechanism's instruction quota and the maximum-cycles quota.

Trace-driven modelling choices (standard for this class of simulator):
wrong-path execution is approximated by stalling fetch from a
mispredicted branch until it resolves plus a redirect penalty, and
architectural values are never computed.

Performance notes (see docs/PERFORMANCE.md): :meth:`OooPipeline.run`
is one fused loop with the pipeline state in locals; every hot
structure uses ``__slots__``; uop decode happens once at fetch via a
table keyed by the op class's str value (port, kind, latency), and
fetch sets an ``_Inflight``'s fields without an ``__init__`` call;
issue is wakeup driven -- producers wake their consumers through
forward links, a woken entry waits in a wake wheel (a dict from the
cycle it becomes due to the entries due then), each cycle's bucket
joins an age-ordered ready list, and the issue stage walks that list
once, carrying port-blocked entries over in order instead of popping
and pushing them back; nothing walks the RS, and the forward links are
dropped at issue, so retired uops are freed;
policy hooks the policy leaves at their :class:`SwitchPolicy` defaults
are skipped; store-to-load forwarding uses an address-indexed ROB
store map; and the loop fast-forwards over provably idle cycles
straight to the next retirement / wakeup / frontend / quota /
Delta-boundary event. Outside
the loop, traces arrive one code-loop pass at a time
(:func:`repro.workloads.tracegen.make_trace` chains lists, so fetch's
``next`` is C code) and the hierarchy builds its ``AccessResult``
tuples without the NamedTuple's Python-level ``__new__``. All of these
are bit-identical transformations -- golden tests in
``tests/integration/test_golden_kernels.py`` pin the exact outputs and
``tests/cpu/test_issue_order.py`` pins the order and cycle of every
load the core issues.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from math import ceil, isinf
from operator import attrgetter
from typing import Optional, Sequence

from repro.core.policy import NoFairnessPolicy, SwitchPolicy, overridden_hook
from repro.cpu.branch import BranchPredictor
from repro.cpu.hierarchy import AccessResult, MemoryHierarchy
from repro.cpu.isa import NUM_ARCH_REGS, MicroOp, OpClass
from repro.cpu.machine import MachineConfig
from repro.cpu.program import ProgramCursor, TraceProgram
from repro.errors import ConfigurationError, SimulationError
from repro.telemetry import SWITCH as _TRACE_SWITCH
from repro.telemetry import resolve_sink
from repro.telemetry.events import thread_switch

__all__ = ["CpuThreadStats", "CpuRunResult", "OooPipeline"]

# Uop kinds: the execute/retire dispatch key, decoded once at fetch.
_KIND_SIMPLE = 0  # ALU / NOP / MUL / FP
_KIND_BRANCH = 1
_KIND_STORE = 2
_KIND_LOAD = 3

# Issue-port indices (ALU-class ops share port 0).
_PORT_ALU, _PORT_MUL, _PORT_FP, _PORT_LOAD, _PORT_STORE = range(5)

#: Sort key of the ready list: program order.
_by_seq = attrgetter("seq")


class _Inflight:
    """One in-flight uop instance (all belong to the active thread).

    Dependencies are tracked forward: a producer lists the consumers
    renamed while it waited in the RS and wakes them when it issues,
    then drops the list. Nothing links a uop to its producers, so a
    retired uop is freed once no architectural register names it.

    There is no ``__init__``: fetch builds each record with
    ``object.__new__`` and sets its fields inline, which costs less
    than a call per uop. It sets every field but ``pending``, ``wake``
    and ``access_issued_at``, each written before it is read.
    """

    __slots__ = (
        "uop", "seq", "visible_at", "pending", "wake", "consumers",
        "completed_at", "access", "access_issued_at", "mispredicted",
        "port", "kind", "exec_latency",
    )

    uop: MicroOp
    seq: int
    visible_at: int
    # Set at rename, and read only, when a producer has not issued:
    # ``pending`` counts such producers, ``wake`` is the latest known
    # producer completion (the earliest issue cycle once ``pending`` is
    # 0).
    pending: int
    wake: int
    #: younger uops waiting on this one (None when there are none or
    #: once this uop has issued and woken them)
    consumers: Optional[list["_Inflight"]]
    #: set when the uop issues (None = still waiting in the RS)
    completed_at: Optional[int]
    #: the cache access of an issued, non-forwarded load, and the cycle
    #: it was issued at (set together)
    access: Optional[AccessResult]
    access_issued_at: int
    mispredicted: bool
    #: decoded at fetch: issue port, execute/retire kind, latency
    port: int
    kind: int
    exec_latency: int


class _ThreadContext:
    """Per-thread fetch/rename state and raw statistics."""

    __slots__ = (
        "thread_id", "cursor", "producers", "ready_at", "last_dispatch_seq",
        "retired", "run_cycles", "misses",
        "miss_switches", "forced_switches", "cycle_quota_switches",
    )

    def __init__(self, thread_id: int, program: TraceProgram) -> None:
        self.thread_id = thread_id
        self.cursor: ProgramCursor = program.cursor()
        #: arch reg -> producing in-flight uop (None = value ready)
        self.producers: list[Optional[_Inflight]] = [None] * NUM_ARCH_REGS
        self.ready_at = 0
        self.last_dispatch_seq = -1

        self.retired = 0
        self.run_cycles = 0
        self.misses = 0
        self.miss_switches = 0
        self.forced_switches = 0
        self.cycle_quota_switches = 0

    def snapshot(self) -> tuple:
        return (self.retired, self.run_cycles, self.misses, self.miss_switches,
                self.forced_switches, self.cycle_quota_switches)


@dataclass(frozen=True)
class CpuThreadStats:
    """Per-thread statistics over the measured window."""

    retired: int
    run_cycles: int
    misses: int
    miss_switches: int
    forced_switches: int
    cycle_quota_switches: int

    @property
    def switches(self) -> int:
        return self.miss_switches + self.forced_switches + self.cycle_quota_switches


@dataclass(frozen=True)
class CpuRunResult:
    """Outcome of one detailed-core run (measured window)."""

    cycles: int
    threads: tuple[CpuThreadStats, ...]
    switch_latencies: tuple[int, ...] = field(default=())
    l2_miss_rate: float = 0.0
    branch_mispredict_rate: float = 0.0

    @property
    def ipcs(self) -> list[float]:
        return [t.retired / self.cycles for t in self.threads]

    @property
    def total_ipc(self) -> float:
        return sum(self.ipcs)

    @property
    def mean_switch_latency(self) -> float:
        if not self.switch_latencies:
            return 0.0
        return sum(self.switch_latencies) / len(self.switch_latencies)


class OooPipeline:
    """The core. One instance simulates one run (single- or multi-thread)."""

    def __init__(
        self,
        programs: Sequence[TraceProgram],
        config: MachineConfig = MachineConfig(),
        policy: Optional[SwitchPolicy] = None,
    ) -> None:
        if not programs:
            raise ConfigurationError("at least one program is required")
        self.config = config
        self.policy = policy if policy is not None else NoFairnessPolicy()
        # Selection hook: consulted only when the policy overrides it,
        # so the default round-robin dispatch stays untouched otherwise.
        self._policy_select = overridden_hook(self.policy, "select_thread")
        self.hierarchy = MemoryHierarchy(config)
        self.predictor = BranchPredictor(
            config.predictor_history_bits,
            config.predictor_table_entries,
            config.btb_entries,
        )
        self.threads = [
            _ThreadContext(i, program) for i, program in enumerate(programs)
        ]
        self.now = 0
        self.switch_latencies: list[int] = []
        #: min ready_at over pending (not-ready, not-exhausted) threads,
        #: refreshed by each _pick_ready call (no per-cycle list rebuild
        #: in the no-runnable idle-skip)
        self._pending_ready_min: Optional[int] = None

    def _pick_ready(self) -> Optional[_ThreadContext]:
        """Oldest-dispatch ready thread; refreshes the cached minimum
        ``ready_at`` over pending threads in the same single pass. A
        policy overriding ``select_thread`` replaces the round-robin
        choice (but not the bookkeeping)."""
        now = self.now
        select = self._policy_select
        ready: Optional[list[int]] = [] if select is not None else None
        best: Optional[_ThreadContext] = None
        best_seq = 0
        pending_min: Optional[int] = None
        for t in self.threads:
            if t.cursor.exhausted:
                continue
            r = t.ready_at
            if r <= now:
                if ready is not None:
                    ready.append(t.thread_id)
                s = t.last_dispatch_seq
                if best is None or s < best_seq:
                    best = t
                    best_seq = s
            elif pending_min is None or r < pending_min:
                pending_min = r
        self._pending_ready_min = pending_min
        if select is not None and ready:
            choice = select(tuple(ready), float(now))
            if choice is not None:
                if choice not in ready:
                    raise SimulationError(
                        f"policy selected thread {choice!r} at cycle {now}, "
                        f"but the ready set is {tuple(ready)}"
                    )
                return self.threads[choice]
        return best

    def run(
        self,
        min_instructions: int,
        warmup_instructions: int = 0,
        max_cycles: int = 50_000_000,
    ) -> CpuRunResult:
        """Run until every thread retired ``min_instructions``.

        One loop iteration simulates one cycle: dispatch a thread if the
        core is free, then retire, issue (and execute), rename, fetch,
        drain one senior store, account the cycle, check the quotas,
        fire a due Delta boundary, and finally fast-forward over
        provably idle cycles. The pipeline state lives in locals for the
        whole run; only ``now`` and ``switch_latencies`` are written
        back for the result.
        """
        if min_instructions <= 0:
            raise ConfigurationError("min_instructions must be positive")
        config = self.config
        policy = self.policy
        threads = self.threads
        multithreaded = len(threads) > 1
        hierarchy = self.hierarchy
        fetch_access = hierarchy.fetch_access
        data_access = hierarchy.data_access
        store_access = hierarchy.store_access
        predict = self.predictor.predict_and_update
        pick_ready = self._pick_ready
        new_inflight = object.__new__
        instruction_budget = overridden_hook(policy, "instruction_budget")
        cycle_budget = overridden_hook(policy, "cycle_budget")
        next_boundary = overridden_hook(policy, "next_boundary")
        on_retired = overridden_hook(policy, "on_retired")
        on_run_start = overridden_hook(policy, "on_run_start")
        on_miss = overridden_hook(policy, "on_miss")
        on_switch_out = overridden_hook(policy, "on_switch_out")
        on_boundary = policy.on_boundary
        # Tracing is observation only: each switch-out emits a ``switch``
        # event when the ambient sink wants one, so an untraced run pays
        # one `is not None` test per switch-out. Only multithreaded runs
        # emit: a single-thread run has no other thread to switch to.
        sink = resolve_sink(None) if multithreaded else None
        emit_switch = (
            sink.emit if sink is not None and sink.wants(_TRACE_SWITCH) else None
        )

        # Decode table: op class -> (issue port, kind, execute latency),
        # consulted once per fetched uop. Keyed by the enum's str value,
        # whose hash is C code (Enum.__hash__ is not).
        alu_latency = config.alu_latency
        decode = {
            OpClass.ALU._value_: (_PORT_ALU, _KIND_SIMPLE, alu_latency),
            OpClass.NOP._value_: (_PORT_ALU, _KIND_SIMPLE, alu_latency),
            OpClass.BRANCH._value_: (_PORT_ALU, _KIND_BRANCH, alu_latency),
            OpClass.MUL._value_: (_PORT_MUL, _KIND_SIMPLE, config.mul_latency),
            OpClass.FP._value_: (_PORT_FP, _KIND_SIMPLE, config.fp_latency),
            OpClass.LOAD._value_: (_PORT_LOAD, _KIND_LOAD, 0),
            OpClass.STORE._value_: (_PORT_STORE, _KIND_STORE, 1),
        }
        port_limits = (
            config.alu_ports, config.mul_ports, config.fp_ports,
            config.load_ports, config.store_ports,
        )
        fetch_width = config.fetch_width
        rename_width = config.rename_width
        retire_width = config.retire_width
        rob_entries = config.rob_entries
        rs_entries = config.rs_entries
        load_buffer_entries = config.load_buffer_entries
        store_buffer_entries = config.store_buffer_entries
        fetch_queue_entries = config.fetch_queue_entries
        frontend_latency = config.frontend_latency
        redirect_penalty = config.branch_redirect_penalty
        line_bytes = config.l1i.line_bytes
        l1i_latency = config.l1i.latency
        l1d_latency = config.l1d.latency
        max_cycles_quota = config.max_cycles_quota
        drain_latency = config.drain_latency

        fq: deque[_Inflight] = deque()
        rob: deque[_Inflight] = deque()
        #: wake wheel: cycle -> RS entries whose producers have all
        #: issued and the last of them completes that cycle (every key
        #: is at least ``now`` at the issue stage)
        wheel: dict[int, list[_Inflight]] = {}
        #: RS entries due to issue, oldest (lowest seq) first
        ready: list[_Inflight] = []
        rs_count = 0  # RS occupancy: renamed, not yet issued
        #: senior stores: (thread_id, address) awaiting cache drain
        store_buffer: deque[tuple[int, int]] = deque()
        #: address -> seqs of un-retired stores in the ROB (in program
        #: order), so forwarding lookups skip the ROB scan
        rob_stores: dict[int, deque[int]] = {}
        loads_in_flight = 0
        active: Optional[_ThreadContext] = None
        pending_branch: Optional[_Inflight] = None
        fetch_line: Optional[int] = None
        fetch_resume_at = 0
        dispatch_start = 0
        dispatch_counter = 0
        first_retire_seen = False
        switch_started_at: Optional[int] = None
        seq = 0
        total_retired = 0
        ready_at = 0
        now = self.now

        snapshot_time: Optional[int] = None
        snapshots: list[tuple] = []
        if warmup_instructions == 0:
            snapshot_time = 0
            snapshots = [t.snapshot() for t in threads]
        switch_latencies = self.switch_latencies

        while now < max_cycles:
            for t in threads:
                if t.retired < min_instructions and (
                    not t.cursor.exhausted
                    # End-of-trace: wait for its in-flight uops to drain.
                    or (t is active and (rob or fq))
                ):
                    break
            else:
                break  # every thread is finished
            if snapshot_time is None and total_retired >= warmup_instructions:
                snapshot_time = now
                snapshots = [t.snapshot() for t in threads]
                hierarchy.reset_statistics()
                self.predictor.reset_statistics()
                switch_latencies = self.switch_latencies = []

            if (
                active is not None
                and not rob
                and not fq
                and active.cursor.exhausted
            ):
                # The active thread ran out of trace: release the core.
                if emit_switch is not None:
                    emit_switch(
                        thread_switch(float(now), active.thread_id, "done", "cpu")
                    )
                if on_switch_out is not None:
                    on_switch_out(active.thread_id, "done", float(now))
                active = None

            if active is None:
                self.now = now
                active = pick_ready()
                if active is None:
                    pending_min = self._pending_ready_min
                    if pending_min is None:
                        break  # every thread's trace is exhausted
                    # Nothing runnable: skip idle time in one hop (the
                    # store buffer still drains one store per cycle).
                    target = min(pending_min, max_cycles)
                    while store_buffer and now < target:
                        store_access(store_buffer.popleft()[1], now)
                        now += 1
                    if next_boundary is not None:
                        boundary = next_boundary(float(now))
                        while boundary < target:
                            now = int(boundary)
                            on_boundary(boundary)
                            boundary = next_boundary(float(now))
                    if now < target:
                        now = target
                    continue
                # Dispatch.
                active.last_dispatch_seq = dispatch_counter
                dispatch_counter += 1
                dispatch_start = now
                first_retire_seen = False
                fetch_line = None
                pending_branch = None
                if fetch_resume_at < now:
                    fetch_resume_at = now
                if switch_started_at is not None:
                    # Measure the refill latency from the dispatch, not
                    # from the switch: cycles the previous thread's idle
                    # gap already paid are not switch overhead.
                    switch_started_at = now
                if on_run_start is not None:
                    on_run_start(active.thread_id, float(now))

            # Retire: in order, up to retire_width uops.
            retired_now = 0
            switch_reason: Optional[str] = None
            while rob and retired_now < retire_width:
                head = rob[0]
                completed_at = head.completed_at
                if completed_at is None or completed_at > now:
                    access = head.access  # its ready_at is completed_at
                    if multithreaded and access is not None and access.l2_miss:
                        # SOE trigger: unresolved miss to memory at the
                        # ROB head.
                        active.misses += 1
                        active.miss_switches += 1
                        if on_miss is not None:
                            on_miss(
                                active.thread_id, float(now),
                                latency=float(access.ready_at - head.access_issued_at),
                            )
                        switch_reason = "miss"
                        ready_at = access.ready_at
                    break
                kind = head.kind
                if kind == _KIND_STORE:
                    if len(store_buffer) >= store_buffer_entries:
                        break  # retirement stalls on a full store buffer
                    address = head.uop.address
                    store_buffer.append((active.thread_id, address))
                    seqs = rob_stores[address]
                    seqs.popleft()
                    if not seqs:
                        del rob_stores[address]
                elif kind == _KIND_LOAD:
                    loads_in_flight -= 1
                rob.popleft()
                retired_now += 1
            if retired_now:
                active.retired += retired_now
                total_retired += retired_now
                if switch_started_at is not None:
                    switch_latencies.append(now - switch_started_at)
                    switch_started_at = None

            issued = renamed = fetched = 0
            if switch_reason is None:
                # Issue: this cycle's wheel bucket joins the ready list
                # (sorted: Timsort merges the two runs), then one walk
                # issues the due entries oldest first while their port
                # has a free slot; the entries whose port is full carry
                # over, still in seq order, to the next cycle.
                bucket = wheel.pop(now, None)
                if bucket is not None:
                    if ready:
                        ready += bucket
                    else:
                        ready = bucket
                    ready.sort(key=_by_seq)
                if ready:
                    free = list(port_limits)
                    blocked: list[_Inflight] = []
                    # The list iterator walks by index, so an entry
                    # inserted after the current one is still visited.
                    for entry in ready:
                        port = entry.port
                        if not free[port]:
                            blocked.append(entry)
                            continue
                        free[port] -= 1
                        issued += 1
                        kind = entry.kind
                        if kind == _KIND_SIMPLE:
                            completed_at = now + entry.exec_latency
                        elif kind == _KIND_LOAD:
                            # Store-to-load forwarding from an older
                            # same-thread store in the senior store
                            # buffer or the ROB.
                            address = entry.uop.address
                            for thread_id, store_address in store_buffer:
                                if store_address == address:
                                    # A cross-thread senior store's data
                                    # is not forwarded (Section 4.1): the
                                    # load goes to cache.
                                    forwarded = thread_id == active.thread_id
                                    break
                            else:
                                seqs = rob_stores.get(address)
                                forwarded = seqs is not None and seqs[0] < entry.seq
                            if forwarded:
                                completed_at = now + 1 + l1d_latency
                            else:
                                access = data_access(address, now + 1)
                                entry.access = access
                                entry.access_issued_at = now + 1
                                completed_at = access.ready_at
                        elif kind == _KIND_BRANCH:
                            completed_at = now + entry.exec_latency
                            if entry.mispredicted:
                                # Fetch resumes after resolve + redirect
                                # penalty.
                                resume = completed_at + redirect_penalty
                                if resume > fetch_resume_at:
                                    fetch_resume_at = resume
                                if pending_branch is entry:
                                    pending_branch = None
                        else:  # _KIND_STORE: address generation only
                            completed_at = now + 1
                        entry.completed_at = completed_at
                        consumers = entry.consumers
                        if consumers is not None:
                            # Wake the consumers. One due now (a
                            # zero-latency producer) is younger than
                            # this entry, so it goes in at its seq
                            # position, after this entry, and issues
                            # later in this same oldest-first walk.
                            entry.consumers = None
                            for consumer in consumers:
                                if completed_at > consumer.wake:
                                    consumer.wake = completed_at
                                consumer.pending -= 1
                                if not consumer.pending:
                                    wake = consumer.wake
                                    if wake <= now:
                                        at = len(ready)
                                        while ready[at - 1].seq > consumer.seq:
                                            at -= 1
                                        ready.insert(at, consumer)
                                    else:
                                        bucket = wheel.get(wake)
                                        if bucket is None:
                                            wheel[wake] = [consumer]
                                        else:
                                            bucket.append(consumer)
                    ready = blocked
                    rs_count -= issued

                # Rename: wire each uop to its sources' producers.
                if fq:
                    producers = active.producers
                    while renamed < rename_width and fq:
                        entry = fq[0]
                        if (
                            entry.visible_at > now
                            or len(rob) >= rob_entries
                            or rs_count >= rs_entries
                        ):
                            break
                        kind = entry.kind
                        if kind == _KIND_LOAD:
                            if loads_in_flight >= load_buffer_entries:
                                break
                            loads_in_flight += 1
                        fq.popleft()
                        uop = entry.uop
                        pending = wake = 0
                        for reg in uop.srcs:
                            producer = producers[reg]
                            if producer is not None:
                                completed_at = producer.completed_at
                                if completed_at is None:
                                    pending += 1
                                    consumers = producer.consumers
                                    if consumers is None:
                                        producer.consumers = [entry]
                                    else:
                                        consumers.append(entry)
                                elif completed_at > wake:
                                    wake = completed_at
                        if pending:
                            entry.pending = pending
                            entry.wake = wake
                        elif wake <= now + 1:
                            # Due at the next issue stage. It is younger
                            # than every RS entry, so appending keeps
                            # the ready list in seq order.
                            ready.append(entry)
                        else:
                            bucket = wheel.get(wake)
                            if bucket is None:
                                wheel[wake] = [entry]
                            else:
                                bucket.append(entry)
                        if uop.dest is not None:
                            producers[uop.dest] = entry
                        if kind == _KIND_STORE:
                            seqs = rob_stores.get(uop.address)
                            if seqs is None:
                                rob_stores[uop.address] = deque((entry.seq,))
                            else:
                                seqs.append(entry.seq)
                        rob.append(entry)
                        rs_count += 1
                        renamed += 1

                # Fetch, unless waiting out a redirect / i-miss / drain
                # or stalled behind an unresolved mispredicted branch.
                if now >= fetch_resume_at and pending_branch is None:
                    cursor = active.cursor
                    replay = cursor._replay
                    iterator = cursor._iterator
                    while fetched < fetch_width and len(fq) < fetch_queue_entries:
                        if replay:  # ProgramCursor.fetch, inlined
                            uop = replay.popleft()
                        else:
                            try:
                                uop = next(iterator)
                            except StopIteration:
                                cursor._exhausted = True
                                break
                        visible_at = now + frontend_latency
                        line_stall = False
                        pc = uop.pc
                        line = pc // line_bytes
                        if line != fetch_line:
                            fetch_line = line
                            line_ready = fetch_access(pc, now).ready_at
                            if line_ready > now + l1i_latency:
                                # I-cache (or iTLB) miss: this uop arrives
                                # late and fetch stalls until the line is in.
                                fetch_resume_at = line_ready
                                visible_at = line_ready + frontend_latency
                                line_stall = True
                        port, kind, latency = decode[uop.opclass._value_]
                        entry = new_inflight(_Inflight)  # see _Inflight
                        entry.uop = uop
                        entry.seq = seq
                        entry.visible_at = visible_at
                        entry.consumers = None
                        entry.completed_at = None
                        entry.access = None
                        entry.mispredicted = False
                        entry.port = port
                        entry.kind = kind
                        entry.exec_latency = latency
                        seq += 1
                        fq.append(entry)
                        fetched += 1
                        if kind == _KIND_BRANCH:
                            if not predict(uop):
                                entry.mispredicted = True
                                pending_branch = entry
                                break
                            if uop.taken:
                                fetch_line = None  # taken: redirects the line
                        if line_stall:
                            break

            if store_buffer:
                drained = True
                store_access(store_buffer.popleft()[1], now)
            else:
                drained = False

            if switch_reason is None:
                if retired_now:
                    first_retire_seen = True
                if first_retire_seen:
                    active.run_cycles += 1
                    if on_retired is not None:
                        on_retired(active.thread_id, retired_now, 1.0)
                if multithreaded:
                    # Quotas: fairness mechanism / time sharing / max-cycles.
                    if (
                        instruction_budget is not None
                        and instruction_budget(active.thread_id) <= 0
                    ):
                        active.forced_switches += 1
                        switch_reason = "quota"
                        ready_at = now
                    else:
                        budget = max_cycles_quota if cycle_budget is None else min(
                            cycle_budget(active.thread_id), max_cycles_quota
                        )
                        if now - dispatch_start >= budget:
                            active.cycle_quota_switches += 1
                            switch_reason = "cycle_quota"
                            ready_at = now

            if switch_reason is not None:
                # Switch out: return every in-flight uop (ROB, then the
                # younger fetch queue: program order) to the cursor.
                active.cursor.push_back([u.uop for u in rob] + [u.uop for u in fq])
                fq.clear()
                rob.clear()
                wheel.clear()
                ready = []
                rs_count = 0
                rob_stores.clear()
                loads_in_flight = 0
                pending_branch = None
                active.producers = [None] * NUM_ARCH_REGS
                active.ready_at = ready_at
                if emit_switch is not None:
                    emit_switch(
                        thread_switch(
                            float(now), active.thread_id, switch_reason, "cpu"
                        )
                    )
                if on_switch_out is not None:
                    on_switch_out(active.thread_id, switch_reason, float(now))
                active = None
                # Drain: the next thread cannot start fetching before this.
                fetch_resume_at = now + drain_latency
                switch_started_at = now

            if next_boundary is not None:
                boundary = next_boundary(float(now))
                if boundary <= now:
                    on_boundary(boundary)

            now += 1

            if switch_reason is not None or (
                retired_now or issued or renamed or fetched or drained
            ):
                continue
            assert active is not None  # no switch-out this cycle
            # Provably idle cycle (and the store buffer is empty): every
            # cycle up to the next event would repeat it verbatim, so
            # jump to a safe lower bound on that event and replay the
            # skipped cycles' only side effect, cycle accounting (linear
            # in cycles for run_cycles and every policy's on_retired).
            target = max_cycles
            # ROB-head completion: retirement, and the SOE trigger's own
            # resolution (an armed trigger would already have fired).
            if rob:
                completed_at = rob[0].completed_at
                if completed_at is not None and completed_at < target:
                    target = completed_at
            # RS wakeup: the wheel's earliest cycle. Nothing issued
            # although every port was free, so an entry left ready waits
            # on a port count of zero and never issues.
            if wheel:
                wake = min(wheel)
                if wake < target:
                    target = wake
            # Frontend: the fetch-queue head once rename has room, or
            # the end of a redirect / i-miss / drain wait.
            if fq and len(rob) < rob_entries and rs_count < rs_entries:
                head = fq[0]
                if not (
                    head.kind == _KIND_LOAD
                    and loads_in_flight >= load_buffer_entries
                ) and head.visible_at < target:
                    target = head.visible_at
            if (
                len(fq) < fetch_queue_entries
                and pending_branch is None
                and not active.cursor.exhausted
            ):
                if fetch_resume_at < target:
                    target = fetch_resume_at
            if multithreaded:
                # Quota horizon: dispatch cycles grow by 1/cycle and the
                # budget shrinks by at most 1/cycle, and the check last
                # passed at now - 1, so it cannot trip for another
                # ceil(slack / 2) cycles.
                budget = max_cycles_quota if cycle_budget is None else min(
                    cycle_budget(active.thread_id), max_cycles_quota
                )
                slack = budget - (now - 1 - dispatch_start)
                horizon = now - 1 + int(ceil(slack / 2.0))
                if horizon < target:
                    target = horizon
            if next_boundary is not None:
                # A boundary fires at the first integer cycle >= it.
                boundary = next_boundary(float(now - 1))
                if not isinf(boundary):
                    boundary_cycle = int(ceil(boundary))
                    if boundary_cycle < target:
                        target = boundary_cycle
            if target > now:
                if first_retire_seen:
                    active.run_cycles += target - now
                    if on_retired is not None:
                        on_retired(active.thread_id, 0, float(target - now))
                now = target

        self.now = now
        if snapshot_time is None:
            snapshot_time = 0
            snapshots = [(0, 0, 0, 0, 0, 0) for _ in threads]
        return self._build_result(snapshot_time, snapshots)

    def _build_result(self, start_time: int, snapshots: list[tuple]) -> CpuRunResult:
        window = self.now - start_time
        if window <= 0:
            raise SimulationError("measurement window is empty")
        stats = []
        for thread, base in zip(self.threads, snapshots):
            retired0, cycles0, misses0, msw0, fsw0, qsw0 = base
            stats.append(
                CpuThreadStats(
                    retired=thread.retired - retired0,
                    run_cycles=thread.run_cycles - cycles0,
                    misses=thread.misses - misses0,
                    miss_switches=thread.miss_switches - msw0,
                    forced_switches=thread.forced_switches - fsw0,
                    cycle_quota_switches=thread.cycle_quota_switches - qsw0,
                )
            )
        return CpuRunResult(
            cycles=window,
            threads=tuple(stats),
            switch_latencies=tuple(self.switch_latencies),
            l2_miss_rate=self.hierarchy.l2.miss_rate,
            branch_mispredict_rate=self.predictor.misprediction_rate,
        )
