"""The detailed core calls only the policy hooks a policy overrides:
``on_run_start``, ``on_miss`` and ``on_switch_out`` left at the
:class:`SwitchPolicy` default are never called."""

from repro.core.policy import NoFairnessPolicy, SwitchPolicy
from repro.cpu.pipeline import OooPipeline
from repro.workloads.tracegen import MEMORY_SPEC, MIXED_SPEC, make_trace


def _refuse(*args, **kwargs):
    raise AssertionError("a default policy hook was called")


def _programs():
    return [
        make_trace(MIXED_SPEC, seed=3, thread_index=0),
        make_trace(MEMORY_SPEC, seed=4, thread_index=1),
    ]


class _Noops(SwitchPolicy):
    """Overrides the three hooks as no-ops, so the core calls them."""

    def __init__(self):
        self.calls = 0

    def on_run_start(self, thread_id, now):
        self.calls += 1

    def on_miss(self, thread_id, now, latency=None):
        self.calls += 1

    def on_switch_out(self, thread_id, reason, now):
        self.calls += 1


def test_unenforced_core_run_calls_no_default_hook(monkeypatch):
    for hook in ("on_run_start", "on_miss", "on_switch_out"):
        monkeypatch.setattr(SwitchPolicy, hook, _refuse)
    skipped = OooPipeline(_programs(), policy=NoFairnessPolicy()).run(
        min_instructions=1_500
    )
    assert sum(t.miss_switches for t in skipped.threads) > 5
    noops = _Noops()
    called = OooPipeline(_programs(), policy=noops).run(min_instructions=1_500)
    assert noops.calls > 10
    assert called == skipped

