"""Tests for the command-line interface."""

import dataclasses
import inspect
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro.cli as cli
from repro.cli import build_parser, main
from repro.errors import ConfigurationError
from repro.experiments.common import EvalConfig
from repro.experiments.registry import experiment_ids, get_experiment


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        ids = experiment_ids()
        for required in ["table2", "fig3", "fig5", "fig6", "fig7", "fig8",
                         "timesharing", "validation", "ablations"]:
            assert required in ids

    def test_lookup_returns_experiment(self):
        experiment = get_experiment("table2")
        assert experiment.paper_reference == "Table 2"
        assert callable(experiment.run)
        assert callable(experiment.render)

    def test_unknown_experiment_raises(self):
        with pytest.raises(ConfigurationError):
            get_experiment("fig99")


class TestCli:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out
        assert "fig8" in out

    def test_parser_defaults(self):
        args = build_parser().parse_args(["fig3"])
        assert args.scale == "default"
        assert args.seed == 0

    def test_run_analytical_experiment(self, capsys):
        assert main(["fig3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out

    def test_run_with_quick_scale(self, capsys):
        assert main(["ablations", "--scale", "quick"]) == 0
        out = capsys.readouterr().out
        assert "Ablations" in out

    def test_unknown_experiment_exits_2(self, capsys):
        assert main(["fig99"]) == 2
        assert "error: unknown experiment 'fig99'" in capsys.readouterr().err

    def test_parser_runner_defaults(self):
        args = build_parser().parse_args(["fig3"])
        assert args.jobs == 1
        assert args.cache_dir is None
        assert not args.no_cache


class TestUsageErrors:
    """Configuration errors end like argparse errors: a message, exit 2."""

    @pytest.mark.parametrize(
        "args, message",
        [
            (["fig6", "--jobs", "0"], "jobs must be a positive"),
            (["fig6", "--inject-faults", "bogus@1"], "unknown fault kind"),
            (["serve", "--port", "99999"], "port must be in"),
        ],
    )
    def test_python_m_repro_prints_the_error_without_traceback(
        self, args, message
    ):
        env = dict(os.environ)
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        env["PYTHONPATH"] = str(src)
        done = subprocess.run(
            [sys.executable, "-m", "repro", *args],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error: ")
        assert message in done.stderr
        assert "Traceback" not in done.stderr
        assert done.stdout == ""


class TestConfigPlumbing:
    """Regression: no experiment may silently ignore --scale/--seed.

    The old CLI passed ``config=`` only to a hard-coded allowlist; any
    experiment outside it ran at its built-in scale whatever the flags
    said. Now every registered run() must accept the keyword and the
    CLI passes it unconditionally.
    """

    #: Run lengths, latencies and the process count have one source
    #: each (EvalConfig, the ambient ExecutionSettings); no run() may
    #: offer a second way to set them.
    OVERRIDES = ("min_instructions", "warmup", "warmup_instructions",
                 "miss_lat", "switch_lat", "jobs")

    def test_every_registered_run_accepts_config(self):
        for experiment_id in experiment_ids():
            run = get_experiment(experiment_id).run
            parameters = inspect.signature(run).parameters
            assert "config" in parameters, (
                f"{experiment_id}.run() does not accept config= -- the "
                "CLI would silently drop --scale/--seed for it"
            )
            assert parameters["config"].default == EvalConfig(), (
                f"{experiment_id}.run()'s config must default to EvalConfig()"
            )
            overrides = sorted(set(self.OVERRIDES) & set(parameters))
            assert not overrides, (
                f"{experiment_id}.run() takes {overrides}; set them through "
                "config or ExecutionSettings"
            )

    def test_config_reaches_formerly_ignored_experiments(self, monkeypatch):
        received = {}

        def probe(experiment_id):
            def run(config=None):
                received[experiment_id] = config
                return ()

            return run

        from repro.experiments import registry
        from repro.experiments.registry import Experiment

        fake = Experiment("fake-probe", "probe", "none",
                          probe("fake-probe"), lambda result: "rendered")
        monkeypatch.setitem(registry._experiments(), "fake-probe", fake)
        assert main(["fake-probe", "--scale", "quick", "--seed", "7"]) == 0
        config = received["fake-probe"]
        assert config is not None
        assert config.seed == 7
        assert config.min_instructions == 400_000.0  # the quick preset

    def test_seed_changes_events_streams(self):
        # events draws randomized streams (ipm_cv > 0), so honoring
        # config.seed must change the measured numbers.
        from repro.experiments import events

        quick = EvalConfig.quick()
        seeded = events.run(config=quick)
        reseeded = events.run(config=dataclasses.replace(quick, seed=3))
        assert seeded.rows[0].total_ipc != reseeded.rows[0].total_ipc

    def test_scale_changes_timesharing_run_length(self):
        from repro.experiments import timesharing

        quick = timesharing.run(quotas=(400.0,), config=EvalConfig.quick())
        longer = timesharing.run(
            quotas=(400.0,),
            config=dataclasses.replace(
                EvalConfig(), min_instructions=1_000_000, warmup_instructions=500_000
            ),
        )
        # Same deterministic workload, different measured windows: the
        # config's run length must actually be applied.
        assert quick.points[0].total_ipc != longer.points[0].total_ipc \
            or quick.enforced_ipc != longer.enforced_ipc


class TestJsonHandling:
    """Regression: --json used to be silently dropped for 'all'."""

    @pytest.fixture()
    def fake_world(self, monkeypatch):
        @dataclasses.dataclass(frozen=True)
        class FakeResult:
            experiment_id: str
            value: float = 1.5

        def fake_run_one(experiment_id, config):
            return FakeResult(experiment_id), f"text for {experiment_id}"

        def fake_run_grid(config):
            results = {fig: FakeResult(fig) for fig in cli._GRID}
            return results, [f"text for {fig}" for fig in cli._GRID]

        monkeypatch.setattr(cli, "_run_one", fake_run_one)
        monkeypatch.setattr(cli, "_run_grid", fake_run_grid)

    def test_all_writes_combined_json(self, fake_world, tmp_path, capsys):
        target = tmp_path / "nested" / "all.json"
        assert main(["all", "--scale", "quick", "--json", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert payload["scale"] == "quick"
        assert payload["seed"] == 0
        expected = set(cli._ALL_BEFORE_GRID) | set(cli._GRID) | \
            set(cli._ALL_AFTER_GRID)
        assert set(payload["experiments"]) == expected
        assert payload["experiments"]["fig6"]["value"] == 1.5

    def test_all_output_creates_parent_dirs(self, fake_world, tmp_path, capsys):
        target = tmp_path / "deep" / "dir" / "all.txt"
        assert main(["all", "--output", str(target)]) == 0
        assert "text for table2" in target.read_text()

    def test_single_json_creates_parent_dirs(self, tmp_path, capsys):
        target = tmp_path / "a" / "b" / "fig3.json"
        assert main(["fig3", "--json", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert "series" in payload


class TestRunnerFlags:
    def test_jobs_flag_installs_settings(self, monkeypatch, capsys):
        from repro.experiments import registry, runner
        from repro.experiments.registry import Experiment

        seen = {}

        def run(config=None):
            seen["settings"] = runner.current_settings()
            return ()

        fake = Experiment("fake-settings", "probe", "none",
                          run, lambda result: "rendered")
        monkeypatch.setitem(registry._experiments(), "fake-settings", fake)
        assert main(["fake-settings", "--jobs", "3",
                     "--cache-dir", "/tmp/some-cache"]) == 0
        assert seen["settings"].jobs == 3
        assert str(seen["settings"].cache_dir) == "/tmp/some-cache"
        assert runner.current_settings().jobs == 1  # restored afterwards

    def test_no_cache_disables_cache_dir(self, monkeypatch, capsys):
        from repro.experiments import registry, runner
        from repro.experiments.registry import Experiment

        seen = {}

        def run(config=None):
            seen["settings"] = runner.current_settings()
            return ()

        fake = Experiment("fake-nocache", "probe", "none",
                          run, lambda result: "rendered")
        monkeypatch.setitem(registry._experiments(), "fake-nocache", fake)
        assert main(["fake-nocache", "--cache-dir", "/tmp/x",
                     "--no-cache"]) == 0
        assert seen["settings"].cache_dir is None

    @pytest.mark.parametrize("command", ["table2", "serve"])
    def test_infinite_retry_backoff_is_refused(self, command, capsys):
        """An inf backoff would park the first retry forever."""
        assert main([command, "--retry-backoff", "inf"]) == 2
        assert "retry backoff" in capsys.readouterr().err


class TestPolicyCli:
    BUILTINS = ("none", "fairness", "rr-timeshare", "icount",
                "lfoc-cluster", "drr-arbiter")

    def test_policies_command_lists_the_zoo(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        for name in self.BUILTINS:
            assert name in out

    def test_policies_command_writes_output_file(self, tmp_path, capsys):
        target = tmp_path / "sub" / "policies.txt"
        assert main(["policies", "--output", str(target)]) == 0
        assert "drr-arbiter" in target.read_text()

    def test_policy_flag_reaches_the_config(self, monkeypatch, capsys):
        from repro.experiments import registry
        from repro.experiments.registry import Experiment

        received = {}

        def run(config=None):
            received["config"] = config
            return ()

        fake = Experiment("fake-policy", "probe", "none",
                          run, lambda result: "rendered")
        monkeypatch.setitem(registry._experiments(), "fake-policy", fake)
        assert main(["fake-policy", "--policy", "drr-arbiter"]) == 0
        assert received["config"].policy == "drr-arbiter"

    def test_unknown_policy_rejected(self, capsys):
        assert main(["fig3", "--policy", "nope"]) == 2
        assert "unknown policy" in capsys.readouterr().err

    def test_policies_flag_only_valid_for_frontier(self, capsys):
        assert main(["fig3", "--policies", "none,fairness"]) == 2
        err = capsys.readouterr().err
        assert "frontier" in err
        assert "use --policy NAME to run other experiments" in err

    def test_frontier_honors_the_policies_flag(self, monkeypatch, capsys):
        from repro.experiments import frontier, registry

        received = {}
        original = frontier.run

        def spy(config=None, pairs=None, policies=None):
            received["policies"] = policies
            from repro.workloads.pairs import evaluation_pairs

            return original(config, pairs=evaluation_pairs()[:1],
                            policies=policies)

        experiment = registry._experiments()["frontier"]
        monkeypatch.setitem(
            registry._experiments(), "frontier",
            registry.Experiment("frontier", experiment.title,
                                experiment.paper_reference, spy,
                                experiment.render),
        )
        assert main(["frontier", "--scale", "quick",
                     "--policies", "none,drr-arbiter"]) == 0
        assert received["policies"] == ("none", "drr-arbiter")
        out = capsys.readouterr().out
        assert "drr-arbiter" in out
