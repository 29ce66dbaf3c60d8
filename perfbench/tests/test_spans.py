"""Tests for span self-time arithmetic and the layer wrappers."""

import dataclasses

from perfbench import spans


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_excludes_child_spans():
    clock = FakeClock()
    rec = spans.Recorder(clock)
    outer = rec.enter()
    clock.advance(1.0)
    inner = rec.enter()
    clock.advance(2.0)
    rec.exit("inner", inner)
    rec.leaf("leaf", 0.25)
    clock.advance(1.0)
    rec.exit("outer", outer)
    assert rec.spans["outer"] == [1, 4.0, 4.0 - 2.0 - 0.25]
    assert rec.spans["inner"] == [1, 2.0, 2.0]
    assert rec.spans["leaf"] == [1, 0.25, 0.25]


def test_grandchildren_count_once_against_their_parent():
    clock = FakeClock()
    rec = spans.Recorder(clock)
    top = rec.enter()
    mid = rec.enter()
    low = rec.enter()
    clock.advance(3.0)
    rec.exit("low", low)
    clock.advance(1.0)
    rec.exit("mid", mid)
    clock.advance(1.0)
    rec.exit("top", top)
    assert rec.spans["top"][2] == 1.0
    assert rec.spans["mid"][2] == 1.0
    assert rec.spans["low"][2] == 3.0


def test_repeated_spans_accumulate_and_merge_sums_processes():
    clock = FakeClock()
    rec = spans.Recorder(clock)
    for _ in range(3):
        start = rec.enter()
        clock.advance(0.5)
        rec.exit("task", start)
    rec.counters["n"] += 2
    rec.samples["wait"].append(0.1)
    merged = spans.merge([rec.to_json(), rec.to_json()])
    assert merged["spans"]["task"] == [6, 3.0, 3.0]
    assert merged["counters"]["n"] == 4
    assert merged["samples"]["wait"] == [0.1, 0.1]


def test_install_wraps_every_binding_and_uninstall_restores(tmp_path):
    from repro.engine import soe
    from repro.experiments import runner

    original = soe.run_soe
    tracer = spans.Tracer(tmp_path)
    tracer.install()
    try:
        assert soe.run_soe is not original
        assert runner.run_soe is soe.run_soe
    finally:
        tracer.uninstall()
    assert soe.run_soe is original and runner.run_soe is original


def test_traced_pair_records_engine_and_workload_spans(tmp_path):
    from repro.experiments.common import EvalConfig
    from repro.experiments.runner import compute_pair
    from repro.workloads.pairs import BenchmarkPair

    config = dataclasses.replace(
        EvalConfig.quick(), min_instructions=50_000.0,
        warmup_instructions=10_000.0, st_min_instructions=50_000.0,
    )
    pair = BenchmarkPair("gcc", "eon")
    plain = compute_pair(pair, config)
    tracer = spans.Tracer(tmp_path)
    tracer.install()
    try:
        traced = compute_pair(pair, config)
    finally:
        tracer.uninstall()
    assert traced == plain
    rec = tracer.recorder
    assert rec.spans["engine.scalar"][0] == len(config.fairness_levels)
    assert rec.spans["engine.st"][0] == 2
    assert rec.counters["workloads.segments"] > 0
    count, total, own = rec.spans["engine.scalar"]
    assert 0.0 < own < total
