"""Event-driven segment-level SOE timing engine.

This engine implements Switch-on-Event multithreading over the paper's
own program-behaviour model (Section 2.1): each thread is a stream of
instruction segments delimited by last-level cache misses. Within a
segment, retirement is uniform at the segment's IPC, so the time of the
next event -- segment end (= miss), instruction-quota exhaustion,
cycle-quota exhaustion, or a policy sampling boundary -- is closed-form
and the engine advances event-to-event with no per-cycle loop.

Semantics mirror Section 4.1's machine:

* the active thread switches out on a last-level miss; the miss resolves
  ``miss_lat`` cycles later, and the thread is not runnable before that;
* every dispatch pays ``switch_lat`` overhead cycles (the paper's ~25
  cycles of drain plus pipeline refill);
* each dispatch is bounded by the maximum-cycles quota (50,000 cycles),
  ensuring every thread runs inside every sampling period;
* the attached :class:`~repro.core.policy.SwitchPolicy` can impose an
  instruction budget (the fairness mechanism's deficit counter) and a
  cycle budget (time sharing), and receives retirement/miss callbacks;
* when no thread is ready (all waiting on misses) the core idles.

:meth:`SoeEngine.run` is one event loop. Each iteration dispatches a
thread and pays the switch overhead, idles until the earliest pending
miss resolves, or executes the active thread up to its next event and
handles that event (segment end, budget switch, boundary), all inline.
Policy hooks that a policy leaves at the :class:`SwitchPolicy` default
are bound once as absent and never called, and the next boundary is
read again only after boundaries fire. Methods remain for the rare
paths only: a policy's ``select_thread``, firing due boundaries (under
the :data:`MAX_EVENTS` watchdog), inactive spans that cross a boundary,
and idling up to the ``max_cycles`` cap. docs/PERFORMANCE.md records
what this layout saves and how it is measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.core.policy import NoFairnessPolicy, SwitchPolicy, overridden_hook
from repro.engine.results import SoeRunResult, ThreadStats
from repro.engine.segments import SegmentStream
from repro.engine.thread import EngineThread
from repro.errors import ConfigurationError, SimulationError
from repro.telemetry import SWITCH as _TRACE_SWITCH
from repro.telemetry import resolve_sink
from repro.telemetry.events import segment_end, stall, thread_switch
from repro.telemetry.profile import PROFILE
from repro.telemetry.sinks import TraceSink

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.engine.recorder import IntervalRecorder

__all__ = ["SoeParams", "RunLimits", "SoeEngine", "run_soe", "MAX_EVENTS"]

_EPS = 1e-9

#: Watchdog on boundary-callback storms: a single simulated instant may
#: fire at most this many policy/recorder boundaries before the engine
#: concludes the callbacks are failing to advance their schedule.
MAX_EVENTS = 1_000_000


@dataclass(frozen=True)
class SoeParams:
    """Machine-level SOE parameters (paper Table 3 / Section 4.1)."""

    miss_lat: float = 300.0
    switch_lat: float = 25.0
    max_cycles_quota: float = 50_000.0

    def __post_init__(self) -> None:
        if not all(
            math.isfinite(value)
            for value in (self.miss_lat, self.switch_lat, self.max_cycles_quota)
        ):
            # A NaN latency would make the clock NaN, and no cap test
            # would ever stop the run.
            raise ConfigurationError(f"machine parameters must be finite: {self}")
        if self.miss_lat < 0 or self.switch_lat < 0:
            raise ConfigurationError("latencies must be non-negative")
        if self.max_cycles_quota <= 0:
            raise ConfigurationError("max_cycles_quota must be positive")


@dataclass(frozen=True)
class RunLimits:
    """Stopping and measurement-window configuration for a run.

    The paper simulates until every thread completes ``min_instructions``
    (6,000,000 in the evaluation) and excludes the first
    ``warmup_instructions`` (1,000,000, counted across all threads) from
    the statistics. ``max_cycles`` is a safety net against pathological
    configurations.
    """

    min_instructions: float = 100_000.0
    warmup_instructions: float = 0.0
    max_cycles: float = 5e9

    def __post_init__(self) -> None:
        if not all(
            math.isfinite(value)
            for value in (
                self.min_instructions, self.warmup_instructions, self.max_cycles
            )
        ):
            raise ConfigurationError(f"run limits must be finite: {self}")
        if self.min_instructions <= 0:
            raise ConfigurationError("min_instructions must be positive")
        if self.warmup_instructions < 0:
            raise ConfigurationError("warmup_instructions must be non-negative")
        if self.max_cycles <= 0:
            raise ConfigurationError("max_cycles must be positive")


class _Snapshot:
    """Raw statistics captured at the end of warmup."""

    def __init__(self, engine: "SoeEngine") -> None:
        self.time = engine.now
        self.idle_cycles = engine.idle_cycles
        self.switch_overhead_cycles = engine.switch_overhead_cycles
        self.threads = [
            (t.retired, t.run_cycles, t.misses, t.miss_switches,
             t.forced_switches, t.cycle_quota_switches)
            for t in engine.threads
        ]


class SoeEngine:
    """The SOE core: dispatches threads, applies the switch policy."""

    def __init__(
        self,
        streams: Sequence[SegmentStream],
        policy: Optional[SwitchPolicy] = None,
        params: SoeParams = SoeParams(),
        recorder: Optional[IntervalRecorder] = None,
        sink: Optional[TraceSink] = None,
    ) -> None:
        if len(streams) < 2:
            raise ConfigurationError("the SOE engine needs at least two threads")
        self.params = params
        self.policy = policy if policy is not None else NoFairnessPolicy()
        self.recorder = recorder
        # Tracing is observation only; a disabled (ambient) sink
        # resolves to None so the hot path pays one `is not None` test.
        # Category membership is static per sink, so the per-event
        # `wants(SWITCH)` test collapses to one precomputed boolean --
        # a NullSink run pays nothing on the event path.
        self._trace = resolve_sink(sink)
        trace = self._trace
        self._emit_switch = (
            trace.emit if trace is not None and trace.wants(_TRACE_SWITCH) else None
        )
        self.threads = [EngineThread(i, s) for i, s in enumerate(streams)]
        self.now = 0.0
        self.idle_cycles = 0.0
        self.switch_overhead_cycles = 0.0
        self._active: Optional[EngineThread] = None
        self._dispatch_seq = 0
        self._dispatch_cycles = 0.0

    # ------------------------------------------------------------------
    # Boundary plumbing (policy Delta boundaries + recorder intervals)
    # ------------------------------------------------------------------
    def _next_boundary(self, now: float) -> float:
        boundary = self.policy.next_boundary(now)
        recorder = self.recorder
        if recorder is not None:
            boundary = min(boundary, recorder.next_boundary(now))
        return boundary

    def _fire_due_boundaries(self) -> None:
        policy = self.policy
        recorder = self.recorder
        threshold = self.now + _EPS
        # Fast path: nothing due (the overwhelmingly common case).
        if policy.next_boundary(self.now) > threshold and (
            recorder is None or recorder.next_boundary(self.now) > threshold
        ):
            return
        for _ in range(MAX_EVENTS):
            fired = False
            # Evaluate each schedule exactly once per iteration: a
            # policy whose ``next_boundary`` advances on query must see
            # the value that passed the guard handed to ``on_boundary``.
            boundary = policy.next_boundary(self.now)
            if boundary <= self.now + _EPS:
                policy.on_boundary(boundary)
                fired = True
            if recorder is not None:
                recorder_boundary = recorder.next_boundary(self.now)
                if recorder_boundary <= self.now + _EPS:
                    recorder.on_boundary(recorder_boundary, self)
                    fired = True
            if not fired:
                return
        states = "; ".join(
            f"T{t.thread_id}: retired={t.retired:.0f} ready_at={t.ready_at:.1f} "
            f"done={t.done} active={t is self._active}"
            for t in self.threads
        )
        raise SimulationError(
            f"boundary callbacks failed to advance their schedule after "
            f"{MAX_EVENTS} firings at t={self.now:.1f} "
            f"({self.now:.1f} cycles elapsed); threads: {states}"
        )

    def _elapse_inactive(self, duration: float, kind: str) -> None:
        """Pass non-executing time (``kind`` is ``"idle"`` or
        ``"switch"`` overhead) that may cross boundaries, splitting it
        at each one so sampling periods stay exact."""
        remaining = duration
        while remaining > _EPS:
            boundary = self._next_boundary(self.now)
            step = min(remaining, max(boundary - self.now, 0.0))
            if step <= _EPS:
                self._fire_due_boundaries()
                continue
            self.now += step
            if math.isfinite(boundary) and abs(boundary - self.now) <= _EPS:
                # ``now += step`` accumulates float drift, so a step cut
                # at the boundary can land a hair off it and leave the
                # next ``boundary - now`` within _EPS on the wrong side,
                # firing a sampling boundary one iteration late. Snap to
                # the boundary so sampling periods stay exact.
                self.now = boundary
            if kind == "idle":
                self.idle_cycles += step
            else:
                self.switch_overhead_cycles += step
            remaining -= step
            self._fire_due_boundaries()

    def _idle_to_cap(self, cap: float) -> None:
        """Idle up to the hard cycle cap: every pending ``ready_at`` lies
        at or beyond it.

        A naive ``min(target, cap) - now`` elapse is non-positive once
        ``now`` sits within _EPS of the cap, which would advance nothing
        and spin the run loop forever on an all-idle span; elapse
        straight to the cap and pin ``now`` there so the loop's
        max_cycles check terminates.
        """
        remaining = cap - self.now
        if remaining > _EPS:
            if self._emit_switch is not None:
                self._emit_switch(stall(self.now, remaining, "engine"))
            self._elapse_inactive(remaining, "idle")
        if self.now < cap:
            self.idle_cycles += cap - self.now
            self.now = cap

    def _select_ready(
        self, select: Callable[[tuple[int, ...], float], Optional[int]]
    ) -> Optional[EngineThread]:
        """The ready thread the policy's ``select_thread`` picks, or None
        when no thread is ready or the policy defers to round robin."""
        now = self.now
        threshold = now + _EPS
        ready = tuple(
            t.thread_id
            for t in self.threads
            if not t.done and t.ready_at <= threshold
        )
        if not ready:
            return None
        choice = select(ready, now)
        if choice is None:
            return None
        if choice not in ready:
            raise SimulationError(
                f"policy selected thread {choice!r} at t={now:.1f}, "
                f"but the ready set is {ready}"
            )
        return self.threads[choice]

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, limits: RunLimits = RunLimits()) -> SoeRunResult:
        """Run until every thread retired ``limits.min_instructions``.

        Returns statistics over the post-warmup window.
        """
        snapshot: Optional[_Snapshot] = None
        if limits.warmup_instructions == 0:
            snapshot = _Snapshot(self)

        # Everything the loop reads per event is bound to a local once.
        # Policy hooks left at the SwitchPolicy default (None here) are
        # not called: their answer is ``inf`` or nothing. In particular
        # the default round robin stays untouched unless the policy
        # overrides ``select_thread``, and an F = 0 run calls no policy
        # code at all.
        threads = self.threads
        policy = self.policy
        instruction_budget = overridden_hook(policy, "instruction_budget")
        cycle_budget = overridden_hook(policy, "cycle_budget")
        on_retired = overridden_hook(policy, "on_retired")
        select = overridden_hook(policy, "select_thread")
        next_boundary = (
            self._next_boundary if self.recorder is not None else policy.next_boundary
        )
        on_run_start = overridden_hook(policy, "on_run_start")
        on_miss = overridden_hook(policy, "on_miss")
        on_switch_out = overridden_hook(policy, "on_switch_out")
        fire_due_boundaries = self._fire_due_boundaries
        emit = self._emit_switch
        switch_lat = self.params.switch_lat
        miss_lat = self.params.miss_lat
        max_cycles_quota = self.params.max_cycles_quota
        min_instructions = limits.min_instructions
        warmup_instructions = limits.warmup_instructions
        max_cycles = limits.max_cycles
        inf = math.inf

        # Loop state. ``self.now`` is written after every change of
        # ``now``, so callbacks and recorders always read the clock.
        # ``boundary`` is the next policy/recorder boundary: a schedule
        # changes only inside ``on_boundary`` (the SwitchPolicy
        # contract), so it is read again only after boundaries fire.
        now = self.now
        boundary = next_boundary(now)
        active = self._active
        dispatch_seq = self._dispatch_seq
        dispatch_cycles = self._dispatch_cycles
        # Only an execution step retires instructions or exhausts a
        # stream, so the stop and warmup tests run after steps alone.
        stepped = True
        while True:
            if stepped:
                for t in threads:
                    if not t.done and t.retired < min_instructions:
                        break
                else:
                    break  # every thread finished
            if now >= max_cycles:
                break
            if stepped and snapshot is None:
                # A plain left-to-right total: the same additions in the
                # same order as ``sum``, without a generator per step.
                total = 0.0
                for t in threads:
                    total += t.retired
                if total >= warmup_instructions:
                    snapshot = _Snapshot(self)
            stepped = False

            if active is None:
                # Dispatch the policy's pick, else the least recently
                # dispatched ready thread; with none ready, idle until
                # the earliest pending miss resolves.
                thread = None if select is None else self._select_ready(select)
                if thread is None:
                    threshold = now + _EPS
                    best_seq = 0
                    for t in threads:
                        if not t.done and t.ready_at <= threshold and (
                            thread is None or t.last_dispatch_seq < best_seq
                        ):
                            thread = t
                            best_seq = t.last_dispatch_seq
                if thread is not None:
                    thread.last_dispatch_seq = dispatch_seq
                    dispatch_seq += 1
                    active = self._active = thread
                    dispatch_cycles = 0.0
                    duration = switch_lat
                else:
                    target: Optional[float] = None
                    for t in threads:
                        if not t.done and (target is None or t.ready_at < target):
                            target = t.ready_at
                    if target is None:
                        raise SimulationError("no runnable threads and none pending")
                    if target <= now + _EPS:
                        raise SimulationError("idle requested while a thread is ready")
                    if target >= max_cycles:
                        self._idle_to_cap(max_cycles)
                        now = self.now
                        boundary = next_boundary(now)
                        continue
                    duration = target - now
                    if emit is not None:
                        emit(stall(now, duration, "engine"))
                # Elapse the switch overhead or idle span. Unless a
                # boundary falls inside it, that is one step. (With no
                # schedule, ``boundary`` is inf and never falls inside.)
                if duration > _EPS:
                    if boundary - now >= duration:
                        now += duration
                        if abs(boundary - now) <= _EPS:
                            now = boundary  # see _elapse_inactive
                        self.now = now
                        if thread is None:
                            self.idle_cycles += duration
                        else:
                            self.switch_overhead_cycles += duration
                        if boundary <= now + _EPS:
                            fire_due_boundaries()
                            boundary = next_boundary(now)
                    else:
                        kind = "idle" if thread is None else "switch"
                        self._elapse_inactive(duration, kind)
                        now = self.now
                        boundary = next_boundary(now)
                if thread is not None and on_run_start is not None:
                    on_run_start(thread.thread_id, now)
                continue

            # Execute the active thread up to its next event: segment
            # end (a miss), instruction or cycle budget, a boundary, or
            # the run's cycle cap.
            stepped = True
            tid = active.thread_id
            t_boundary = boundary - now
            if t_boundary <= _EPS:
                fire_due_boundaries()
                boundary = next_boundary(now)
                continue
            segment = active.segment
            if segment is None:
                raise SimulationError(f"thread {tid} has no active segment")
            ipc = active.segment_ipc
            t_segment = segment.cycles - active.segment_cycles_done
            if t_segment < 0.0:
                t_segment = 0.0
            t_instr = inf
            if instruction_budget is not None:
                budget = instruction_budget(tid)
                if -inf < budget < inf:  # finite
                    t_instr = budget / ipc
            t_cycle = max_cycles_quota - dispatch_cycles
            if cycle_budget is not None:
                t_cycle = min(cycle_budget(tid), t_cycle)
            if t_cycle < 0.0:
                t_cycle = 0.0
            t_limit = max_cycles - now
            if t_limit < 0.0:
                t_limit = 0.0
            dt = t_segment  # min() of the five spans, unrolled
            if t_instr < dt:
                dt = t_instr
            if t_cycle < dt:
                dt = t_cycle
            if t_boundary < dt:
                dt = t_boundary
            if t_limit < dt:
                dt = t_limit
            if t_limit <= _EPS:
                # ``now`` sits within _EPS below the cap: nothing more
                # can run, and the cap test above would never fire.
                break

            if dt <= _EPS:
                # A zero budget at dispatch time: treat as an immediate
                # forced switch so the engine cannot spin.
                if t_segment <= _EPS:
                    reason = "segment"
                elif t_instr <= _EPS:
                    reason = "quota"
                else:
                    reason = "cycle_quota"
            else:
                retired = dt * ipc
                active.segment_cycles_done += dt
                active.retired += retired
                active.run_cycles += dt
                dispatch_cycles += dt
                now += dt
                self.now = now
                if on_retired is not None:
                    on_retired(tid, retired, dt)
                if boundary <= now + _EPS:
                    fire_due_boundaries()
                    boundary = next_boundary(now)
                if dt >= t_segment - _EPS and (
                    segment.cycles - active.segment_cycles_done <= _EPS
                ):
                    reason = "segment"
                elif dt >= t_instr - _EPS:
                    reason = "quota"
                elif dt >= t_cycle - _EPS:
                    reason = "cycle_quota"
                else:
                    continue  # the step ended at a boundary: keep running

            if reason == "segment":
                # The segment ends: its miss parks the thread for the
                # miss latency (a miss-free join keeps it running), and
                # the thread's stream supplies the next segment.
                if segment.ends_with_miss:
                    latency = segment.miss_latency
                    if latency is None:
                        latency = miss_lat
                    active.misses += 1
                    active.ready_at = now + latency
                else:
                    latency = None
                    active.ready_at = now
                following = next(active.iterator, None)
                if following is None:
                    active.segment = None
                    active.done = True
                else:
                    active.segment = following
                    active.segment_ipc = following.instructions / following.cycles
                    active.segment_cycles_done = 0.0
                if emit is not None:
                    emit(segment_end(now, tid, latency))
                if latency is not None:
                    active.miss_switches += 1
                    if on_miss is not None:
                        on_miss(tid, now, latency)
                    reason = "miss"
                elif active.done:
                    reason = "done"
                else:
                    continue  # a miss-free join: keep executing
            elif reason == "quota":
                active.forced_switches += 1
                active.ready_at = now
            else:
                active.cycle_quota_switches += 1
                active.ready_at = now
            if emit is not None:
                emit(thread_switch(now, tid, reason, "engine"))
            if on_switch_out is not None:
                on_switch_out(tid, reason, now)
            active = self._active = None

        self._dispatch_seq = dispatch_seq
        self._dispatch_cycles = dispatch_cycles
        if snapshot is None:
            # The run ended inside warmup; measure the whole run instead
            # of returning an empty window.
            snapshot = _Snapshot(self)
            snapshot.time = 0.0
            snapshot.idle_cycles = 0.0
            snapshot.switch_overhead_cycles = 0.0
            snapshot.threads = [(0.0, 0.0, 0, 0, 0, 0) for _ in self.threads]
        PROFILE.record_cycles(self.now)
        return self._build_result(snapshot)

    # ------------------------------------------------------------------
    def _build_result(self, snapshot: _Snapshot) -> SoeRunResult:
        window = self.now - snapshot.time
        if window <= 0:
            raise SimulationError("measurement window is empty; increase run length")
        stats = []
        for thread, base in zip(self.threads, snapshot.threads):
            retired0, cycles0, misses0, msw0, fsw0, qsw0 = base
            stats.append(
                ThreadStats(
                    retired=thread.retired - retired0,
                    run_cycles=thread.run_cycles - cycles0,
                    misses=thread.misses - misses0,
                    miss_switches=thread.miss_switches - msw0,
                    forced_switches=thread.forced_switches - fsw0,
                    cycle_quota_switches=thread.cycle_quota_switches - qsw0,
                )
            )
        return SoeRunResult(
            cycles=window,
            threads=tuple(stats),
            idle_cycles=self.idle_cycles - snapshot.idle_cycles,
            switch_overhead_cycles=(
                self.switch_overhead_cycles - snapshot.switch_overhead_cycles
            ),
        )


def run_soe(
    streams: Sequence[SegmentStream],
    policy: Optional[SwitchPolicy] = None,
    params: SoeParams = SoeParams(),
    limits: RunLimits = RunLimits(),
    recorder: Optional[IntervalRecorder] = None,
) -> SoeRunResult:
    """Convenience wrapper: build an engine and run it once."""
    return SoeEngine(streams, policy, params, recorder).run(limits)
