"""Self-check: the tree at HEAD must satisfy its own lint rules.

Zero unsuppressed findings, and a complete Eq. 1-13 traceability map.
"""

from repro.analysis.engine import default_repo_root, run_lint

REPO = default_repo_root()


def _lint():
    return run_lint(repo_root=REPO)


def test_repo_root_detection():
    assert (REPO / "src" / "repro").is_dir()
    assert (REPO / "PAPER.md").is_file()


def test_head_is_lint_clean():
    result = _lint()
    assert result.findings == [], [f.render() for f in result.findings]


def test_every_suppression_names_a_real_rule():
    from repro.analysis.registry import rule_ids
    from repro.analysis.suppressions import parse_suppressions

    known = set(rule_ids())
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        used = parse_suppressions(path.read_text()).rules_used
        unknown = used - known
        assert not unknown, f"{path}: unknown rule ids in pragma: {unknown}"


def test_equation_map_is_complete():
    result = _lint()
    table = result.eq_table
    assert table is not None
    assert sorted(table.registry) == list(range(1, 14))
    assert table.is_complete
    # Exactly one claimant each, and they live in the simulation code.
    for number in table.registry:
        (claim,) = table.claimants(number)
        assert claim.relpath.startswith("src/repro/")


def test_partial_target_is_clean(capsys):
    """``repro lint src/repro/analysis src/repro/telemetry``:
    neither subpackage claims an equation, and none is reported as
    unimplemented because the rest of the package claims them all."""
    from repro.analysis.cli import main as lint_main

    code = lint_main([
        "--repo-root", str(REPO), "src/repro/analysis", "src/repro/telemetry",
    ])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "RL005" not in out


def test_all_rules_ran():
    result = _lint()
    assert set(result.rules_run) == {
        "RL001", "RL002", "RL003", "RL004", "RL005", "RL006", "RL007",
        "RL008", "RL009", "RL010",
    }
    assert result.files_checked > 50
