"""``repro lint`` — the static-analysis front-end.

Examples::

    python -m repro lint                       # human-readable findings
    python -m repro lint --json report.json    # machine-readable report
    python -m repro lint --sarif lint.sarif    # SARIF 2.1.0 for code hosts
    python -m repro lint --eq-table            # paper-equation coverage map
    python -m repro lint --ratchet             # CI mode: stale baseline fails
    python -m repro lint --write-baseline      # grandfather current findings

Exit status: 0 when no non-baselined error findings (and, under
``--ratchet``, no stale baseline entries); 1 otherwise; 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import List, Optional, Sequence

from repro.analysis.baseline import Baseline
from repro.analysis.engine import (
    DEFAULT_BASELINE,
    DEFAULT_TARGET,
    LintResult,
    build_eq_table,
    default_repo_root,
    run_lint,
)
from repro.analysis.registry import all_rules
from repro.errors import ConfigurationError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soe-repro lint",
        description=(
            "repro-lint: AST static analysis enforcing determinism, "
            "float-safety, and paper-equation traceability "
            "(docs/STATIC_ANALYSIS.md)"
        ),
    )
    parser.add_argument(
        "targets",
        nargs="*",
        default=[DEFAULT_TARGET],
        help=f"repo-relative files/directories to lint (default {DEFAULT_TARGET})",
    )
    parser.add_argument(
        "--repo-root",
        metavar="PATH",
        help="repository root (default: auto-detected from the package)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run exclusively (e.g. RL001,RL004)",
    )
    parser.add_argument(
        "--disable",
        metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        default=DEFAULT_BASELINE,
        help=f"baseline file, repo-relative (default {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the committed baseline (report everything live)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="rewrite the baseline to grandfather exactly the current "
        "findings, then exit 0",
    )
    parser.add_argument(
        "--ratchet",
        action="store_true",
        help="fail when the baseline has stale entries (the grandfathered "
        "count may only go down; CI runs with this flag)",
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        help="write the full JSON report to FILE ('-' for stdout)",
    )
    parser.add_argument(
        "--sarif",
        metavar="FILE",
        help="write a SARIF 2.1.0 report to FILE",
    )
    parser.add_argument(
        "--graph",
        metavar="FILE",
        help="write the project call graph with inferred effect sets "
        "to FILE as JSON ('-' for stdout)",
    )
    parser.add_argument(
        "--eq-table",
        action="store_true",
        help="print the paper-equation traceability table and exit",
    )
    parser.add_argument(
        "--format",
        choices=("text", "markdown", "github"),
        default="text",
        help="finding rendering: 'github' emits ::error/::warning "
        "workflow annotations; 'markdown' applies to --eq-table "
        "(default text)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        help="also write the rendered text to FILE",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="print only the summary line, not individual findings",
    )
    return parser


def _split(value: Optional[str]) -> List[str]:
    if not value:
        return []
    return [part.strip() for part in value.split(",") if part.strip()]


def _write_text(path: str, text: str) -> None:
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text)


def _annotation_escape(text: str) -> str:
    """Escape finding text for GitHub workflow-command message data."""
    return (
        text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    )


def _render_github(result: LintResult, ratchet: bool) -> str:
    """GitHub Actions workflow annotations, one per *active* finding.

    Baselined and suppressed findings are omitted: annotations surface
    what the ratchet would fail on, not grandfathered history. Under
    ``--ratchet`` each stale baseline entry is an error annotation too.
    """
    lines: List[str] = []
    for finding in result.active:
        level = "error" if str(finding.severity) == "error" else "warning"
        lines.append(
            f"::{level} file={finding.path},line={finding.line},"
            f"col={finding.col + 1},title={finding.rule}::"
            f"{_annotation_escape(finding.message)}"
        )
    if ratchet:
        for entry in result.stale_baseline:
            lines.append(
                "::error title=stale baseline entry::"
                f"{_annotation_escape(entry)}"
            )
    lines.append(
        f"repro-lint: {len(result.active)} finding(s) across "
        f"{result.files_checked} files"
    )
    return "\n".join(lines)


def _render(result: LintResult, quiet: bool, ratchet: bool) -> str:
    lines: List[str] = []
    if not quiet:
        lines.extend(finding.render() for finding in result.findings)
        for entry in result.stale_baseline:
            prefix = "error" if ratchet else "note"
            lines.append(f"{prefix}: stale baseline entry: {entry}")
    by_rule = result.by_rule()
    breakdown = (
        " (" + ", ".join(f"{rule}:{count}" for rule, count in sorted(by_rule.items()))
        + ")"
        if by_rule
        else ""
    )
    baselined = sum(1 for finding in result.findings if finding.baselined)
    lines.append(
        f"repro-lint: {len(result.active)} finding(s){breakdown}, "
        f"{baselined} baselined, {len(result.suppressed)} suppressed, "
        f"{len(result.stale_baseline)} stale baseline entr(y/ies) across "
        f"{result.files_checked} files"
    )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            meta = rule.meta
            print(f"{meta.id}  {meta.name:28s} [{meta.severity}]")
            print(f"       {meta.rationale}")
            scope = ", ".join(meta.paths)
            print(f"       scope: {scope}")
            if meta.exempt:
                print(f"       exempt: {', '.join(meta.exempt)}")
        return 0

    repo_root = (
        pathlib.Path(args.repo_root) if args.repo_root else default_repo_root()
    )
    baseline_path = repo_root / args.baseline

    try:
        if args.eq_table:
            # The table needs only the docstring scan, not a lint pass.
            table = build_eq_table(repo_root, tuple(args.targets))
        else:
            baseline = (
                None
                if (args.no_baseline or args.write_baseline)
                else Baseline.load(baseline_path)
            )
            result = run_lint(
                repo_root=repo_root,
                targets=tuple(args.targets),
                select=_split(args.select),
                disable=_split(args.disable),
                baseline=baseline,
            )
    except ConfigurationError as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return 2

    if args.eq_table:
        if table is None:
            print("repro-lint: error: PAPER.md not found", file=sys.stderr)
            return 2
        text = (
            table.render_markdown()
            if args.format == "markdown"
            else table.render_text()
        )
        print(text)
        if args.output:
            _write_text(args.output, text + "\n")
        return 0

    if args.write_baseline:
        new_baseline = Baseline.from_findings(result.active)
        new_baseline.save(baseline_path)
        print(
            f"repro-lint: baseline rewritten with {new_baseline.total} "
            f"finding(s) -> {baseline_path}"
        )
        return 0

    if args.format == "github":
        text = _render_github(result, ratchet=args.ratchet)
    else:
        text = _render(result, quiet=args.quiet, ratchet=args.ratchet)
    print(text)
    if args.output:
        _write_text(args.output, text + "\n")

    if args.graph:
        payload = json.dumps(result.graph_json(), indent=2, sort_keys=True) + "\n"
        if args.graph == "-":
            sys.stdout.write(payload)
        else:
            _write_text(args.graph, payload)
    if args.json:
        payload = json.dumps(result.to_json(), indent=2, sort_keys=True) + "\n"
        if args.json == "-":
            sys.stdout.write(payload)
        else:
            _write_text(args.json, payload)
    if args.sarif:
        _write_text(
            args.sarif,
            json.dumps(result.to_sarif(), indent=2, sort_keys=True) + "\n",
        )

    exit_code = result.exit_code
    if args.ratchet and result.stale_baseline:
        exit_code = max(exit_code, 1)
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
