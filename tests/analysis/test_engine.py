"""Deterministic file discovery and the project view ``run_lint`` builds."""

from repro.analysis.engine import default_repo_root, discover_files, run_lint
from repro.errors import ConfigurationError

import pytest

DIRTY = "def f(x: float) -> bool:\n    return x == 0.5\n"
CLEAN = "def f(x: float) -> float:\n    return x\n"


def _mini_repo(tmp_path, files):
    for relpath, source in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    tmp_path.joinpath("PAPER.md").write_text("No equations here.")
    return tmp_path


class TestDiscovery:
    def test_sorted_by_path_string_not_components(self, tmp_path):
        # Path-component ordering would put engine/batch.py before
        # engine.py; the contract is plain string order ('.' < '/'),
        # identical on every OS and filesystem.
        repo = _mini_repo(
            tmp_path,
            {
                "src/repro/engine.py": CLEAN,
                "src/repro/engine/batch.py": CLEAN,
                "src/repro/engine/__init__.py": "",
            },
        )
        assert discover_files(repo, ["src/repro"]) == [
            "src/repro/engine.py",
            "src/repro/engine/__init__.py",
            "src/repro/engine/batch.py",
        ]

    def test_empty_init_and_stub_only_files_are_included(self, tmp_path):
        repo = _mini_repo(
            tmp_path,
            {
                "src/repro/__init__.py": "",
                "src/repro/types.py": "RunId = str\nSeed = int\n",
            },
        )
        assert discover_files(repo, ["src/repro"]) == [
            "src/repro/__init__.py",
            "src/repro/types.py",
        ]

    def test_explicit_file_and_directory_targets_deduplicate(self, tmp_path):
        repo = _mini_repo(tmp_path, {"src/repro/core/a.py": CLEAN})
        found = discover_files(
            repo, ["src/repro", "src/repro/core/a.py", "src/repro/core"]
        )
        assert found == ["src/repro/core/a.py"]

    def test_non_python_files_are_ignored(self, tmp_path):
        repo = _mini_repo(tmp_path, {"src/repro/core/a.py": CLEAN})
        (repo / "src/repro/core/notes.md").write_text("not code")
        assert discover_files(repo, ["src/repro"]) == ["src/repro/core/a.py"]

    def test_missing_target_raises_configuration_error(self, tmp_path):
        repo = _mini_repo(tmp_path, {"src/repro/core/a.py": CLEAN})
        with pytest.raises(ConfigurationError, match="no/such"):
            discover_files(repo, ["no/such"])


class TestProjectView:
    def test_modules_cover_every_discovered_file(self):
        root = default_repo_root()
        # One cheap rule: every file is parsed whatever rules run.
        result = run_lint(repo_root=root, select=["RL007"])
        relpaths = [module.relpath for module in result.project.modules]
        assert relpaths == discover_files(root, ["src/repro"])
        assert len(relpaths) == result.files_checked

    def test_find_module_reads_files_outside_the_targets(self, tmp_path):
        repo = _mini_repo(
            tmp_path,
            {"src/repro/core/a.py": DIRTY, "src/repro/telemetry/b.py": CLEAN},
        )
        result = run_lint(repo_root=repo, targets=["src/repro/core"])
        project = result.project
        assert [m.relpath for m in project.modules] == ["src/repro/core/a.py"]
        outside = project.find_module("src/repro/telemetry/b.py")
        assert outside is not None and outside.source == CLEAN
        assert project.find_module("src/repro/missing.py") is None
        assert [f.path for f in result.findings] == ["src/repro/core/a.py"]
