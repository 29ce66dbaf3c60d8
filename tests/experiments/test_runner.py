"""Tests for the parallel, cached experiment-grid runner.

The load-bearing property is bit-identity: whatever the job count and
whatever the cache state, a grid execution must return exactly the
results of a serial uncached run. It is drawn over small grids by
tests/integration/test_path_identity.py; this file checks what
surrounds it (memoization, cache stats, settings plumbing).
"""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.errors import ConfigurationError
from repro.experiments import runner
from repro.experiments.common import EvalConfig, PairResult
from repro.experiments.runner import (
    CacheStats,
    ExecutionSettings,
    ResultCache,
    compute_pair,
    execution,
    parallel_map,
    run_grid,
)
from repro.engine.results import SoeRunResult, ThreadStats
from repro.telemetry import RingBufferSink, tracing
from repro.workloads.pairs import BenchmarkPair

#: A subset that exercises memoization: gcc appears in three pairs (in
#: both thread positions) and one pair is homogeneous (offset stream).
PAIRS = (
    BenchmarkPair("gcc", "gcc"),
    BenchmarkPair("gcc", "eon"),
    BenchmarkPair("galgel", "gcc"),
    BenchmarkPair("lucas", "applu"),
)


@pytest.fixture(scope="module")
def config():
    return EvalConfig.quick()


@pytest.fixture(scope="module")
def serial_grid(config):
    return run_grid(config, PAIRS).results


def _square(value):
    return value * value


class TestParallelMap:
    def test_serial_and_parallel_agree_in_order(self):
        items = list(range(20))
        with execution(ExecutionSettings(jobs=1)):
            assert parallel_map(_square, items) == [v * v for v in items]
        with execution(ExecutionSettings(jobs=3)):
            assert parallel_map(_square, items) == [v * v for v in items]

    def test_uses_ambient_settings(self):
        with execution(ExecutionSettings(jobs=2)):
            assert runner.current_settings().jobs == 2
            assert parallel_map(_square, [1, 2, 3]) == [1, 4, 9]
        assert runner.current_settings().jobs == 1


class TestExecutionSettings:
    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ConfigurationError):
            ExecutionSettings(jobs=0)

    def test_coerces_cache_dir_to_path(self, tmp_path):
        settings = ExecutionSettings(cache_dir=str(tmp_path))
        assert settings.cache_dir == tmp_path

    def test_context_restores_previous(self):
        before = runner.current_settings()
        with execution(ExecutionSettings(jobs=4)):
            pass
        assert runner.current_settings() is before


class TestEquivalence:
    def test_cached_rerun_is_bit_identical(self, config, serial_grid, tmp_path):
        first = run_grid(config, PAIRS,
                         ExecutionSettings(jobs=2, cache_dir=tmp_path))
        second = run_grid(config, PAIRS,
                          ExecutionSettings(jobs=1, cache_dir=tmp_path))
        assert first.results == serial_grid
        assert second.results == serial_grid
        assert first.stats.hits == 0 and first.stats.misses == len(PAIRS)
        assert second.stats.hits == len(PAIRS) and second.stats.misses == 0

    def test_compute_pair_matches_grid_cell(self, config, serial_grid):
        assert compute_pair(PAIRS[1], config) == serial_grid[1]


class TestBaselineMemoization:
    def test_shared_benchmarks_simulated_once(self, config, tmp_path):
        journal = tmp_path / "grid.ckpt"
        run_grid(config, PAIRS, ExecutionSettings(checkpoint=journal))
        records = [json.loads(line) for line in journal.read_text().splitlines()]
        # 8 thread slots, but gcc@seed1 is shared by gcc:gcc and
        # gcc:eon, so only 7 distinct single-thread runs happen.
        assert sum(record.get("task") == "st" for record in records) == 7

    def test_memoized_values_are_reused_not_recomputed(self, config):
        sink = RingBufferSink(categories=frozenset({"runner"}))
        with tracing(sink):
            outcome = run_grid(config, PAIRS, ExecutionSettings())
        st_runs = [
            event for event in sink.events
            if event["event"] == "task" and event["phase"] == "start"
            and event["kind"] == "single_thread"
        ]
        assert len(st_runs) == 7
        gcc_gcc, gcc_eon = outcome.results[:2]
        assert gcc_gcc.ipc_st[0] == gcc_eon.ipc_st[0]


class TestResultCache:
    def test_key_depends_on_config_and_pair(self, config, tmp_path):
        cache = ResultCache(tmp_path)
        from dataclasses import replace

        assert cache.key(PAIRS[0], config) != cache.key(PAIRS[1], config)
        assert cache.key(PAIRS[0], config) != \
            cache.key(PAIRS[0], replace(config, seed=1))
        assert cache.key(PAIRS[0], config) == cache.key(PAIRS[0], config)

    def test_corrupt_entry_is_a_miss(self, config, serial_grid, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(PAIRS[0], config, serial_grid[0])
        assert cache.load(PAIRS[0], config) == serial_grid[0]
        cache.path(PAIRS[0], config).write_bytes(b"not a pickle")
        assert cache.load(PAIRS[0], config) is None
        # pickle.load raises ValueError (not UnpicklingError) on this
        # one -- any corruption whatsoever must read as a miss.
        cache.path(PAIRS[0], config).write_bytes(b"garbage\n")
        assert cache.load(PAIRS[0], config) is None

    def test_foreign_payload_is_a_miss(self, config, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.path(PAIRS[0], config)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(pickle.dumps({"format": 999, "result": "nope"}))
        assert cache.load(PAIRS[0], config) is None

    def test_missing_directory_is_all_misses(self, config, tmp_path):
        outcome = run_grid(
            config, PAIRS[:1],
            ExecutionSettings(cache_dir=tmp_path / "never-created" / "deep"),
        )
        assert outcome.stats == CacheStats(hits=0, misses=1)

    def test_code_version_is_stable_hex(self):
        assert runner.code_version() == runner.code_version()
        int(runner.code_version(), 16)


#: Runs in a fresh interpreter: one single-thread task and one SOE task
#: per registered policy, then ``code_version()`` with every file read
#: recorded. Prints which simulator modules the tasks loaded, which
#: files the digest read, and which modules taking it imported.
_CODE_VERSION_PROBE = """
import json, pathlib, sys
from dataclasses import replace

from repro.core.policies import policy_names
from repro.experiments import runner
from repro.experiments.common import EvalConfig
from repro.workloads.pairs import BenchmarkPair

config = replace(
    EvalConfig.quick(),
    sample_period=10_000.0,
    min_instructions=20_000.0,
    warmup_instructions=5_000.0,
    st_min_instructions=20_000.0,
)
pair = BenchmarkPair("gcc", "eon")
runner._run_grid_task(runner._st_tasks_for(pair, config)[0])
for name in policy_names():
    task = runner._SoeTask(
        pair=pair, level=0.5, config=replace(config, policy=name)
    )
    runner._run_grid_task(task)

simulator = sorted(
    module.__file__
    for name, module in list(sys.modules.items())
    if name.split(".")[:2] in (["repro", "core"], ["repro", "engine"],
                               ["repro", "workloads"])
)
read = []
read_bytes = pathlib.Path.read_bytes

def recording_read_bytes(path):
    read.append(str(path.resolve()))
    return read_bytes(path)

pathlib.Path.read_bytes = recording_read_bytes
before = set(sys.modules)
runner.code_version()
print(json.dumps({
    "simulator": [str(pathlib.Path(f).resolve()) for f in simulator],
    "read": read,
    "imported": sorted(set(sys.modules) - before),
}))
"""


class TestCodeVersionCoverage:
    """The cache key must change when any module a grid task runs does."""

    @pytest.fixture(scope="class")
    def probe(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        completed = subprocess.run(
            [sys.executable, "-c", _CODE_VERSION_PROBE],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        return json.loads(completed.stdout)

    def test_every_loaded_simulator_module_is_digested(self, probe):
        assert len(probe["simulator"]) > 10
        missing = sorted(set(probe["simulator"]) - set(probe["read"]))
        assert missing == []

    def test_taking_the_digest_imports_nothing(self, probe):
        assert probe["imported"] == []


class TestPairResultErrors:
    """Regression: missing/idle baselines raise descriptive errors."""

    def _run(self, retired: float) -> SoeRunResult:
        stats = ThreadStats(retired=retired, run_cycles=500.0, misses=1,
                            miss_switches=1, forced_switches=0,
                            cycle_quota_switches=0)
        return SoeRunResult(cycles=1000.0, threads=(stats, stats),
                            idle_cycles=0.0, switch_overhead_cycles=0.0)

    def test_missing_baseline_is_configuration_error(self):
        result = PairResult(pair=PAIRS[1], ipc_st=(1.0, 1.0),
                            runs={0.5: self._run(100.0)})
        with pytest.raises(ConfigurationError, match="no F=0 baseline"):
            result.normalized_throughput(0.5)
        with pytest.raises(ConfigurationError, match="no F=0 baseline"):
            _ = result.baseline

    def test_idle_baseline_is_configuration_error(self):
        result = PairResult(
            pair=PAIRS[1], ipc_st=(1.0, 1.0),
            runs={0.0: self._run(0.0), 0.5: self._run(100.0)},
        )
        with pytest.raises(ConfigurationError, match="idle F=0 baseline"):
            result.normalized_throughput(0.5)

    def test_unknown_level_is_configuration_error(self):
        result = PairResult(pair=PAIRS[1], ipc_st=(1.0, 1.0),
                            runs={0.0: self._run(100.0)})
        with pytest.raises(ConfigurationError, match="not run at fairness"):
            result.normalized_throughput(0.75)
        with pytest.raises(ConfigurationError, match="not run at fairness"):
            result.achieved_fairness(0.75)
