"""The ``repro lint`` CLI: exit codes and output formats.

Most tests run against a synthetic mini-repo in tmp_path so they are
independent of the real tree's lint status; the self-check tests in
test_selfcheck.py cover HEAD.
"""

import json

from repro.analysis.cli import build_parser, main as lint_main
from repro.analysis.engine import run_lint
from repro.analysis.registry import ProjectInfo, all_rules

CLEAN = 'def f(x: float) -> float:\n    """Eq. 1: identity."""\n    return x\n'
DIRTY = (
    'def f(x: float) -> bool:\n'
    '    """Eq. 1: a float comparison."""\n'
    '    return x == 0.5\n'
)
PAPER = "The model is Eq. 1."


def _mini_repo(tmp_path, source: str, paper: str = PAPER):
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    core = pkg / "core"
    core.mkdir()
    core.joinpath("model.py").write_text(source)
    tmp_path.joinpath("PAPER.md").write_text(paper)
    return tmp_path


def run_cli(repo, *extra: str) -> int:
    return lint_main(["--repo-root", str(repo), *extra])


class TestExitCodes:
    def test_clean_repo_exits_zero(self, tmp_path, capsys):
        repo = _mini_repo(tmp_path, CLEAN)
        assert run_cli(repo) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        repo = _mini_repo(tmp_path, DIRTY)
        assert run_cli(repo) == 1
        assert "RL004" in capsys.readouterr().out

    def test_missing_target_exits_two(self, tmp_path, capsys):
        repo = _mini_repo(tmp_path, CLEAN)
        assert run_cli(repo, "no/such/dir") == 2

    def test_select_limits_rules(self, tmp_path):
        repo = _mini_repo(tmp_path, DIRTY)
        assert run_cli(repo, "--select", "RL001") == 0
        assert run_cli(repo, "--select", "RL004") == 1

    def test_disable_drops_rule(self, tmp_path):
        repo = _mini_repo(tmp_path, DIRTY)
        assert run_cli(repo, "--disable", "RL004") == 0


class TestOptions:
    def test_flags_are_the_documented_set(self):
        """One machine report (``--json``), no baseline and no ratchet."""
        flags = {
            flag for action in build_parser()._actions for flag in action.option_strings
        }
        assert flags == {
            "-h", "--help", "--repo-root", "--select", "--disable", "--json",
            "--eq-table", "--format", "--list-rules", "--output", "--quiet",
        }


class TestPartialTargets:
    """RL005 on a target that covers only part of ``src/repro``."""

    def _split_repo(self, tmp_path, paper: str):
        repo = _mini_repo(tmp_path, CLEAN, paper)
        other = repo / "src" / "repro" / "other"
        other.mkdir()
        other.joinpath("helpers.py").write_text("def g():\n    return 1\n")
        return repo

    def test_equation_claimed_outside_the_target_is_not_reported(
        self, tmp_path, capsys
    ):
        repo = self._split_repo(tmp_path, PAPER)
        assert run_cli(repo, "src/repro/other") == 0
        assert "RL005" not in capsys.readouterr().out

    def test_equation_claimed_nowhere_is_still_reported(
        self, tmp_path, capsys
    ):
        repo = self._split_repo(tmp_path, "The model is Eq. 1 and Eq. 2.")
        assert run_cli(repo, "src/repro/other") == 1
        out = capsys.readouterr().out
        assert "Eq. 2" in out and "Eq. 1 " not in out


class TestOutputs:
    def test_json_to_stdout(self, tmp_path, capsys):
        repo = _mini_repo(tmp_path, DIRTY)
        assert run_cli(repo, "--quiet", "--json", "-") == 1
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["version"] == 2
        assert payload["summary"]["findings"] == 1
        assert payload["findings"][0]["rule"] == "RL004"

    def test_json_file(self, tmp_path):
        repo = _mini_repo(tmp_path, DIRTY)
        out_json = tmp_path / "out" / "lint.json"
        assert run_cli(repo, "--json", str(out_json)) == 1
        assert json.loads(out_json.read_text())["summary"]["findings"] == 1

    def test_eq_table_text_and_markdown(self, tmp_path, capsys):
        repo = _mini_repo(tmp_path, CLEAN)
        assert run_cli(repo, "--eq-table") == 0
        assert "traceability" in capsys.readouterr().out
        assert run_cli(repo, "--eq-table", "--format", "markdown") == 0
        assert "| " in capsys.readouterr().out

    def test_eq_table_needs_no_rule(self, monkeypatch, capsys):
        """``--eq-table`` prints exactly the table a full run reports,
        with no rule and no whole-program pass run."""
        target = "src/repro/core"
        table = run_lint(targets=(target,)).eq_table
        expected = {
            "text": table.render_text() + "\n",
            "markdown": table.render_markdown() + "\n",
        }

        def refuse(*args, **kwargs):
            raise AssertionError("--eq-table ran a rule")

        for rule in all_rules():
            monkeypatch.setattr(type(rule), "check_module", refuse)
            monkeypatch.setattr(type(rule), "finalize", refuse)
        monkeypatch.setattr(ProjectInfo, "graph", refuse)
        for fmt, text in expected.items():
            assert lint_main(["--eq-table", "--format", fmt, target]) == 0
            assert capsys.readouterr().out == text

    def test_list_rules(self, tmp_path, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RL001", "RL002", "RL003", "RL004", "RL005",
                        "RL006", "RL007"):
            assert rule_id in out

    def test_output_file(self, tmp_path):
        repo = _mini_repo(tmp_path, CLEAN)
        target = tmp_path / "report.txt"
        run_cli(repo, "--output", str(target))
        assert "0 finding(s)" in target.read_text()


class TestGithubFormat:
    def test_annotations_for_active_findings(self, tmp_path, capsys):
        repo = _mini_repo(tmp_path, DIRTY)
        assert run_cli(repo, "--format", "github") == 1
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("::"))
        assert line.startswith("::error file=src/repro/core/model.py,line=")
        assert ",title=RL004::" in line
        assert "1 finding(s)" in out

    def test_messages_are_escaped(self, tmp_path, capsys):
        repo = _mini_repo(tmp_path, DIRTY)
        run_cli(repo, "--format", "github")
        out = capsys.readouterr().out
        for line in out.splitlines():
            if line.startswith("::"):
                # A newline or percent inside the message would break
                # the single-line annotation protocol.
                assert "%" not in line or "%25" in line or "%0A" in line

    def test_suppressed_findings_do_not_annotate(self, tmp_path, capsys):
        repo = _mini_repo(
            tmp_path,
            DIRTY.replace("x == 0.5", "x == 0.5  # repro-lint: disable=RL004 - why"),
        )
        assert run_cli(repo, "--format", "github") == 0
        out = capsys.readouterr().out
        assert "::" not in out
        assert "0 finding(s)" in out
