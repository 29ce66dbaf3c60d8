"""Rebuild ``reference.json``: the scalar in-process grid per config seed.

The grid workloads compare every pass against these digests, so run
this only after a change that is meant to alter simulation results::

    python3 perfbench/reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import grid  # noqa: E402


def main() -> int:
    from repro.experiments.common import EvalConfig
    from repro.experiments.runner import ExecutionSettings, code_version, run_grid

    digests = {}
    gaps = {}
    for config_seed in range(grid.CONFIG_SEEDS):
        outcome = run_grid(
            EvalConfig(seed=config_seed), settings=ExecutionSettings(jobs=1)
        )
        digests[str(config_seed)] = grid.results_digest(outcome.results)
        gaps[str(config_seed)] = grid.paper_gap_pct(outcome.results)
        print(f"config seed {config_seed}: gap {gaps[str(config_seed)]:.3f} pts",
              flush=True)
    payload = {
        "code_version": code_version(),
        "digests": digests,
        "paper_gap_pct": gaps,
    }
    grid.REFERENCE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
