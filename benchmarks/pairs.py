#!/usr/bin/env python
"""Alternating parent/change benchmark pairs, summarized for a claim.

Runs ``perfbench/run.py --trace 0`` of two source trees in turn, on the
same workload, run length and seeds, and prints for every end-to-end
metric of ``BENCHMARK.json`` each side's median and quartiles, how many
pairs the change won, and whether a gain may be claimed::

    python benchmarks/pairs.py --parent ../parent --change . \\
        --workload grid_pool --pairs 10 --seconds 36 --seed-base 1

Pair ``i`` (from 0) runs seed ``seed-base + i`` on both trees; even
pairs run the parent first, odd pairs the change, so drift in the
host's speed does not favour one side. Each tree runs its own
``perfbench/run.py``. A pair is a win when the change's value is better
in the metric's ``better`` direction; ties count for neither side. A
gain holds when the change wins at least nine tenths of the pairs and
the medians differ, in the better direction, by more than the parent's
interquartile range. A second set of pairs needs fresh seeds, hence
``--seed-base``. Each run's result line is echoed as a ``#`` line.

Exits 1 when any run reports ``correct`` other than true or a nonzero
``failed`` count, and 2 when a run cannot be started or prints no
result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SIDES = ("parent", "change")


def schedule(pairs: int, seed_base: int) -> List[Tuple[int, Tuple[str, str]]]:
    """``(seed, run order)`` of each pair, alternating the first side."""
    return [
        (seed_base + i, SIDES if i % 2 == 0 else SIDES[::-1]) for i in range(pairs)
    ]


def result_from_output(text: str) -> Dict[str, Any]:
    """The JSON result object on the last line of a perfbench run."""
    lines = text.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    if not isinstance(result, dict) or "metrics" not in result:
        raise ValueError("last line is not a perfbench result")
    return result


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile (linear interpolation
    between order statistics, as numpy's default)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(
    parent: Sequence[float], change: Sequence[float], better: str
) -> Dict[str, Any]:
    """Quartiles of both sides, the change's wins, and the claim rule."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs on each side")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for old, new in zip(parent, change) if sign * (old - new) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gap = sign * (p_med - c_med)
    iqr = p_q3 - p_q1
    return {
        "parent": (p_q1, p_med, p_q3),
        "change": (c_q1, c_med, c_q3),
        "wins": wins,
        "pairs": len(parent),
        "gap": gap,
        "parent_iqr": iqr,
        "gain": 10 * wins >= 9 * len(parent) and gap > iqr,
    }


def summary_table(
    results: Mapping[str, Sequence[Mapping[str, Any]]],
    metrics: Sequence[Mapping[str, Any]],
) -> List[str]:
    """Markdown rows, one per end-to-end metric every run reported."""
    rows = [
        "| metric | parent median [q1, q3] | change median [q1, q3] "
        "| change | wins | gain holds |",
        "|---|---:|---:|---:|---:|---|",
    ]
    for metric in metrics:
        name = metric["name"]
        try:
            sides = [
                [float(r["metrics"][name]["value"]) for r in results[side]]
                for side in SIDES
            ]
        except (KeyError, TypeError, ValueError):
            continue
        s = summarize(sides[0], sides[1], metric["better"])
        p_q1, p_med, p_q3 = s["parent"]
        c_q1, c_med, c_q3 = s["change"]
        change = (c_med - p_med) / p_med if p_med else float("nan")
        rows.append(
            f"| {name} | {p_med:.4g} [{p_q1:.4g}, {p_q3:.4g}] "
            f"| {c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}] | {change:+.1%} "
            f"| {s['wins']}/{s['pairs']} | {'yes' if s['gain'] else 'no'} |"
        )
    return rows


def _run(tree: Path, workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    command = [
        sys.executable, str(tree / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", f"{seconds:g}", "--trace", "0",
    ]
    done = subprocess.run(
        command, cwd=tree, capture_output=True, text=True, check=False
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{' '.join(command)} exited {done.returncode}: {done.stderr[-500:]}"
        )
    return result_from_output(done.stdout)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed-base", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs and --seconds must be positive")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, tree in trees.items():
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"--{side} {tree} has no perfbench/run.py")

    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    results: Dict[str, List[Dict[str, Any]]] = {side: [] for side in SIDES}
    bad: List[str] = []
    for seed, order in schedule(args.pairs, args.seed_base):
        for side in order:
            try:
                result = _run(trees[side], args.workload, seed, args.seconds)
            except (OSError, RuntimeError, ValueError) as exc:
                print(f"error: {side} seed {seed}: {exc}", file=sys.stderr)
                return 2
            results[side].append(result)
            if result.get("correct") is not True or result.get("failed") != 0:
                bad.append(
                    f"{side} seed {seed}: correct={result.get('correct')!r} "
                    f"failed={result.get('failed')!r}"
                )
            print(f"# seed {seed} {side}: {json.dumps(result)}", flush=True)
    print(
        f"{args.workload}: {args.pairs} pairs, seeds {args.seed_base}-"
        f"{args.seed_base + args.pairs - 1}, --seconds {args.seconds:g}"
    )
    print("\n".join(summary_table(results, metrics)))
    for line in bad:
        print(f"INCORRECT {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
