"""The perfbench baseline gate and the calibration loop in
``benchmarks/harness.py``."""

from __future__ import annotations

import copy
import importlib.util
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

HARNESS = Path(__file__).resolve().parents[2] / "benchmarks" / "harness.py"


@pytest.fixture(scope="module")
def harness():
    spec = importlib.util.spec_from_file_location("_gate_harness", HARNESS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "sim_cycles_per_s", "unit": "cycles/s", "better": "higher",
     "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
]


def _result(**values):
    metrics = {"wall_s": 2.0, "sim_cycles_per_s": 1.0e6, "peak_rss_mb": 50.0}
    metrics.update(values)
    return {
        "correct": True,
        "attempted": 10,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": "u"}
                    for name, value in metrics.items()},
    }


BASELINE = {"grid_pool": _result()}


def _gate(harness, result, baseline=BASELINE, workload="grid_pool"):
    runs = result if isinstance(result, list) else [result]
    _table, failures = harness.gate({workload: runs}, baseline, METRICS)
    return failures


def test_equal_values_pass(harness):
    assert _gate(harness, _result()) == []


@pytest.mark.parametrize(
    "name, inside, outside",
    [
        ("wall_s", 2.0 * 1.249, 2.0 * 1.251),  # lower is better
        ("sim_cycles_per_s", 1.0e6 * 0.751, 1.0e6 * 0.749),  # higher
        ("peak_rss_mb", 50.0 * 1.099, 50.0 * 1.101),  # tighter bound
    ],
)
def test_bound_in_the_worse_direction(harness, name, inside, outside):
    assert _gate(harness, _result(**{name: inside})) == []
    failures = _gate(harness, _result(**{name: outside}))
    assert len(failures) == 1
    assert failures[0].startswith(f"grid_pool: {name} ")


def test_improvement_past_the_bound_passes(harness):
    assert _gate(harness, _result(wall_s=0.5, sim_cycles_per_s=9.0e6)) == []


def test_zero_baseline_fails_on_any_worsening(harness):
    baseline = {"grid_pool": _result(wall_s=0.0)}
    assert _gate(harness, _result(wall_s=0.0), baseline) == []
    assert _gate(harness, _result(wall_s=0.001), baseline)


def test_incorrect_result_fails(harness):
    result = _result()
    result["correct"] = False
    assert _gate(harness, result) == ["grid_pool: correct is False"]


def test_failed_operations_fail(harness):
    result = _result()
    result["failed"] = 1
    assert _gate(harness, result) == ["grid_pool: failed is 1"]


def test_missing_metric_fails(harness):
    result = _result()
    del result["metrics"]["peak_rss_mb"]
    assert _gate(harness, result) == ["grid_pool: metric peak_rss_mb missing"]
    baseline = copy.deepcopy(BASELINE)
    del baseline["grid_pool"]["metrics"]["wall_s"]
    assert _gate(harness, _result(), baseline) == [
        "grid_pool: metric wall_s missing"
    ]


def test_the_median_of_the_runs_is_gated(harness):
    # One slow run in three does not fail the gate; two do.
    assert _gate(harness, [_result(), _result(wall_s=9.0), _result()]) == []
    failures = _gate(harness, [_result(wall_s=9.0), _result(), _result(wall_s=3.0)])
    assert failures == [
        "grid_pool: wall_s 3 is +50.0% worse than the baseline 2 (bound 25%)"
    ]
    # An even count gates on the mean of the two middle runs.
    assert harness.median([1.0, 4.0, 2.0, 3.0]) == 2.5


def test_every_run_must_be_correct(harness):
    bad = _result()
    bad["correct"] = False
    assert _gate(harness, [_result(), bad, _result()]) == [
        "grid_pool: correct is False (run 2 of 3)"
    ]


def test_baseline_entry_is_the_median_of_the_runs(harness):
    runs = [_result(wall_s=w, peak_rss_mb=m) for w, m in [(3, 40), (1, 60), (2, 50)]]
    entry = harness.baseline_entry("grid_pool", runs, METRICS)
    assert entry["runs"] == 3 and entry["correct"] is True and entry["failed"] == 0
    assert {n: v["value"] for n, v in entry["metrics"].items()} == {
        "wall_s": 2.0, "sim_cycles_per_s": 1.0e6, "peak_rss_mb": 50.0,
    }
    assert _gate(harness, runs, {"grid_pool": entry}) == []
    bad = _result()
    bad["failed"] = 2
    with pytest.raises(ValueError, match="grid_pool: failed is 2"):
        harness.baseline_entry("grid_pool", [bad], METRICS)


def test_main_writes_a_baseline_of_medians(harness, tmp_path, monkeypatch):
    target = tmp_path / "baseline.json"
    monkeypatch.setattr(harness, "BASELINE", target)
    committed = json.loads(
        (HARNESS.parent / "baseline.json").read_text()
    )
    workload = sorted(committed)[0]
    paths = []
    for run, scale in enumerate((1.0, 3.0, 2.0)):
        result = copy.deepcopy(committed[workload])
        result["metrics"]["wall_s"]["value"] *= scale
        path = tmp_path / f"{workload}.{run}.out"
        path.write_text(json.dumps(result) + "\n")
        paths.append(str(path))
    assert harness.main(["--write-baseline", *paths]) == 0
    written = json.loads(target.read_text())
    assert list(written) == [workload] and written[workload]["runs"] == 3
    assert written[workload]["metrics"]["wall_s"]["value"] == pytest.approx(
        2.0 * committed[workload]["metrics"]["wall_s"]["value"]
    )
    assert harness.main(paths) == 0


def test_missing_baseline_workload_fails(harness):
    failures = _gate(harness, _result(), workload="service_mixed")
    assert failures == ["service_mixed: no baseline for this workload"]


def test_main_reads_the_last_line_and_names_the_workload(harness, tmp_path,
                                                         capsys):
    committed = json.loads(harness.BASELINE.read_text())
    workload = sorted(committed)[0]
    out = tmp_path / f"{workload}.out"
    out.write_text("# notes\n" + json.dumps(committed[workload]) + "\n")
    assert harness.main([str(out)]) == 0
    bad = copy.deepcopy(committed[workload])
    bad["failed"] = 1
    out.write_text(json.dumps(bad) + "\n")
    assert harness.main([str(out)]) == 1
    assert f"FAIL {workload}: failed is 1" in capsys.readouterr().out


def test_unreadable_result_fails(harness, tmp_path):
    out = tmp_path / "grid_pool.out"
    out.write_text("Traceback (most recent call last):\n")
    assert harness.main([str(out)]) == 1


def test_committed_baseline_covers_every_benchmark_workload(harness):
    committed = json.loads(harness.BASELINE.read_text())
    benchmark = json.loads(harness.BENCHMARK.read_text())
    names = {workload["name"] for workload in benchmark["workloads"]}
    assert set(committed) == names
    for result in committed.values():
        assert result["correct"] is True and result["failed"] == 0
        for metric in benchmark["end_to_end"]:
            assert metric["name"] in result["metrics"]


def test_exec_by_path_leaves_repro_unimported():
    # perfbench/measure.py loads the harness this way inside every
    # benchmark run; importing the simulator there would cost set-up
    # time and memory that the benchmark then measures.
    probe = textwrap.dedent(
        f"""
        import importlib.util, json, sys
        spec = importlib.util.spec_from_file_location(
            "_bench_harness", {str(HARNESS)!r})
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        print(json.dumps({{
            "calibration": module.calibrate(),
            "repro": sorted(m for m in sys.modules
                            if m == "repro" or m.startswith("repro.")),
        }}))
        """
    )
    src = str(HARNESS.parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        check=True, env={"PYTHONPATH": src},
    ).stdout
    report = json.loads(out.strip().splitlines()[-1])
    assert report["repro"] == []
    assert report["calibration"] > 0
