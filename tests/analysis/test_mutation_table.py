"""The mutation table in docs/STATIC_ANALYSIS.md, replayed.

Each table row plants a hazard at a real site in the tree; the row's
rule must flag the planted source. The tree as it stands is lint-clean
(``test_selfcheck.py::test_head_is_lint_clean``), so a finding here is
the plant's. A rule that stops catching its row, or a site that moves
so the plant no longer applies, fails here, and the table must be
re-measured.
"""

import re
import shutil
from collections import Counter
from typing import Dict, List, NamedTuple, Tuple

import pytest

from repro.analysis.engine import (
    check_project,
    check_source,
    default_repo_root,
    run_lint,
)
from repro.analysis.registry import get_rule, rule_ids

REPO = default_repo_root()
DOC = REPO / "docs" / "STATIC_ANALYSIS.md"
TABLE_HEADER = "| Rule | Planted hazard | Rule flags it | Tier-1 |"

#: Rules whose findings need the call graph over the whole package.
WHOLE_PROGRAM = {"RL009", "RL010"}


class Plant(NamedTuple):
    rule: str
    #: (repo-relative path, text found exactly once, its replacement)
    edits: List[Tuple[str, str, str]]
    #: rules that must stay silent on the planted tree
    silent: Tuple[str, ...] = ()


PLANTS: Dict[str, Plant] = {
    # The lognormal sampler draws from the global RNG.
    "rl001_sampler": Plant("RL001", [(
        "src/repro/workloads/synthetic.py",
        "        uniform = rng.random\n",
        "        uniform = random.random\n",
    )]),
    # An unseeded draw on the rarely taken length clamp.
    "rl001_clamp": Plant("RL001", [(
        "src/repro/workloads/synthetic.py",
        "                if not instructions > 1.0:\n"
        "                    instructions = 1.0\n",
        "                if not instructions > 1.0:\n"
        "                    instructions = 1.0 + random.random()\n",
    )]),
    # A wall-clock budget read in the engine loop.
    "rl002_engine": Plant("RL002", [
        ("src/repro/engine/soe.py", "import math\n", "import math\nimport time\n"),
        (
            "src/repro/engine/soe.py",
            "        stepped = True\n        while True:\n",
            "        stepped = True\n"
            "        deadline = time.perf_counter() + 600.0\n"
            "        while True:\n",
        ),
        (
            "src/repro/engine/soe.py",
            "            if now >= max_cycles:\n                break\n",
            "            if now >= max_cycles or time.perf_counter() > deadline:\n"
            "                break\n",
        ),
    ]),
    # The same budget, read through a helper in RL002-exempt telemetry/.
    "rl009_helper": Plant("RL009", [
        (
            "src/repro/telemetry/profile.py",
            "import hashlib\n",
            "import hashlib\nimport time\n",
        ),
        (
            "src/repro/telemetry/profile.py",
            "def _peak_rss_bytes() -> int:\n",
            "def wall_seconds() -> float:\n"
            "    return time.perf_counter()\n\n\n"
            "def _peak_rss_bytes() -> int:\n",
        ),
        (
            "src/repro/engine/soe.py",
            "import math\n",
            "import math\n\nfrom repro.telemetry.profile import wall_seconds\n",
        ),
        (
            "src/repro/engine/soe.py",
            "        stepped = True\n        while True:\n",
            "        stepped = True\n"
            "        deadline = wall_seconds() + 600.0\n"
            "        while True:\n",
        ),
        (
            "src/repro/engine/soe.py",
            "            if now >= max_cycles:\n                break\n",
            "            if now >= max_cycles or wall_seconds() > deadline:\n"
            "                break\n",
        ),
    ], silent=("RL002",)),
    # The grid's pair order comes from a set of pairs.
    "rl003_pairs": Plant("RL003", [(
        "src/repro/experiments/runner.py",
        "    pair_list = list(pairs) if pairs is not None else evaluation_pairs()\n",
        "    pair_list = list(pairs) if pairs is not None "
        "else list(set(evaluation_pairs()))\n",
    )]),
    # The grid's unique single-thread tasks come from a set.
    "rl003_st_tasks": Plant("RL003", [(
        "src/repro/experiments/runner.py",
        "        st_tasks: dict[_StTask, None] = {}\n"
        "        for _, pair in pending:\n"
        "            for task in _st_tasks_for(pair, config):\n"
        "                st_tasks.setdefault(task)\n"
        "        st_order = list(st_tasks)\n",
        "        st_tasks = {\n"
        "            task for _, pair in pending for task in _st_tasks_for(pair, config)\n"
        "        }\n"
        "        st_order = list(st_tasks)\n",
    )]),
    # An exact compare against a float sentinel.
    "rl004_metrics": Plant("RL004", [(
        "src/repro/metrics/throughput.py",
        "    if mean_st <= 0:\n",
        "    if mean_st == 0.0:\n",
    )]),
    # A second function claims Eq. 10.
    "rl005_claim": Plant("RL005", [(
        "src/repro/metrics/throughput.py",
        '    """Footnote 6\'s "speedup of SOE over single thread".\n',
        '    """Eq. 10: footnote 6\'s "speedup of SOE over single thread".\n',
    )]),
    # A mutable default used as a scratch list.
    "rl006_default": Plant("RL006", [
        (
            "src/repro/metrics/report.py",
            "    achieved_values: Sequence[float], fairness_target: float\n"
            ") -> FairnessSummary:\n",
            "    achieved_values: Sequence[float],\n"
            "    fairness_target: float,\n"
            "    clamped: list = [],\n"
            ") -> FairnessSummary:\n",
        ),
        (
            "src/repro/metrics/report.py",
            "    truncated = [truncated_fairness(v, fairness_target) "
            "for v in achieved_values]\n",
            "    clamped.extend(v for v in achieved_values if v > 1.0)\n"
            "    truncated = [truncated_fairness(v, fairness_target) "
            "for v in achieved_values]\n",
        ),
    ]),
    # A bare except in the result cache's tmp sweep.
    "rl007_except": Plant("RL007", [(
        "src/repro/experiments/runner.py",
        "            except OSError:\n"
        "                continue  # raced with another sweeper, or vanished\n",
        "            except:\n"
        "                continue  # raced with another sweeper, or vanished\n",
    )]),
    # The sensitivity spot checks fan out through a bare Pool.
    "rl008_pool": Plant("RL008", [(
        "src/repro/experiments/sensitivity.py",
        "    measured = {\n"
        "        (parameter, value): _measure_cost(machine)\n"
        "        for parameter, value, machine in sweeps\n"
        "        if value in SPOT_CHECKS[parameter]\n"
        "    }\n",
        "    spot = [\n"
        "        (parameter, value, machine)\n"
        "        for parameter, value, machine in sweeps\n"
        "        if value in SPOT_CHECKS[parameter]\n"
        "    ]\n"
        "    import multiprocessing\n"
        "    with multiprocessing.Pool(2) as pool:\n"
        "        costs = pool.map(_measure_cost, [machine for _, _, machine in spot])\n"
        "    measured = {(p, v): c for (p, v, _), c in zip(spot, costs)}\n",
    )]),
    # A worker-side single-thread memo keyed without miss_lat.
    "rl010_memo": Plant("RL010", [(
        "src/repro/experiments/runner.py",
        "def _run_st_task(task: _StTask) -> float:\n",
        "_ST_IPC: dict = {}\n\n\n"
        "def _run_st_task(task: _StTask) -> float:\n"
        "    key = (task.benchmark, task.stream_seed, task.skip_instructions)\n"
        "    if key in _ST_IPC:\n"
        "        return _ST_IPC[key]\n"
        "    _ST_IPC[key] = _run_st_task_uncached(task)\n"
        "    return _ST_IPC[key]\n\n\n"
        "def _run_st_task_uncached(task: _StTask) -> float:\n",
    )]),
    # A worker-side tally the parent never sees under --jobs > 1.
    "rl010_tally": Plant("RL010", [(
        "src/repro/experiments/runner.py",
        "def _run_soe_task(task: _SoeTask) -> SoeRunResult:\n"
        "    spec = _soe_run_spec(task)\n"
        "    return run_soe(spec.streams, spec.make_policy(), spec.params, spec.limits)\n",
        "_SOE_RUNS: list = []\n\n\n"
        "def soe_runs_completed() -> int:\n"
        "    return len(_SOE_RUNS)\n\n\n"
        "def _run_soe_task(task: _SoeTask) -> SoeRunResult:\n"
        "    spec = _soe_run_spec(task)\n"
        "    result = run_soe(spec.streams, spec.make_policy(), spec.params, spec.limits)\n"
        "    _SOE_RUNS.append(task.level)\n"
        "    return result\n",
    )]),
}


def _planted_sources(plant: Plant) -> Dict[str, str]:
    """The edited files' planted text, keyed by repo-relative path."""
    sources: Dict[str, str] = {}
    for relpath, old, new in plant.edits:
        text = sources.get(relpath) or (REPO / relpath).read_text()
        assert text.count(old) == 1, f"plant site moved in {relpath}: {old!r}"
        sources[relpath] = text.replace(old, new)
    return sources


def _package_sources() -> Dict[str, str]:
    return {
        path.relative_to(REPO).as_posix(): path.read_text()
        for path in sorted((REPO / "src" / "repro").rglob("*.py"))
    }


def _findings(rule_id: str, planted: Dict[str, str], tmp_path) -> List[str]:
    """``rule_id``'s rendered findings on the package with ``planted``."""
    if rule_id == "RL005":
        # Traceability reads PAPER.md and the package from disk.
        shutil.copytree(REPO / "src" / "repro", tmp_path / "src" / "repro")
        shutil.copy(REPO / "PAPER.md", tmp_path / "PAPER.md")
        for relpath, text in planted.items():
            (tmp_path / relpath).write_text(text)
        found = run_lint(repo_root=tmp_path, select=[rule_id]).findings
    elif rule_id in WHOLE_PROGRAM:
        found = check_project(get_rule(rule_id), {**_package_sources(), **planted})
    else:
        found = [
            finding
            for relpath, text in planted.items()
            for finding in check_source(get_rule(rule_id), text, relpath)
        ]
    return [finding.render() for finding in found]


@pytest.mark.parametrize("name", sorted(PLANTS))
def test_rule_flags_its_planted_hazard(name, tmp_path):
    plant = PLANTS[name]
    planted = _planted_sources(plant)
    findings = _findings(plant.rule, planted, tmp_path)
    assert findings, f"{plant.rule} does not flag plant {name}"
    assert all(f" {plant.rule} " in line for line in findings)
    for other in plant.silent:
        assert _findings(other, planted, tmp_path) == []


def _table_rows() -> List[List[str]]:
    """The mutation table's rows, each a list of its four cells."""
    lines = DOC.read_text().splitlines()
    rows = []
    for line in lines[lines.index(TABLE_HEADER) + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split(" | ")])
    return rows


def test_every_live_table_row_is_replayed():
    """The docs table and :data:`PLANTS` hold the same rows per rule."""
    live = [row[0] for row in _table_rows() if re.fullmatch(r"RL\d{3}", row[0])]
    assert Counter(live) == Counter(plant.rule for plant in PLANTS.values())


@pytest.mark.parametrize("rule_id", rule_ids())
def test_rule_has_a_row_tier1_misses(rule_id):
    """A rule earns its place with a hazard it flags that tier-1 passes."""
    earned = [
        row for row in _table_rows()
        if row[0] == rule_id and row[2].startswith("yes") and row[3] == "passes"
    ]
    assert earned, f"{rule_id} has no mutation-table row that tier-1 misses"
