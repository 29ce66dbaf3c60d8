"""Tests for experiment-result serialization and the CLI output flags."""

import json
import math
from dataclasses import dataclass, replace

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.experiments.io import result_to_jsonable, write_json


@dataclass(frozen=True)
class Inner:
    value: float


@dataclass(frozen=True)
class Outer:
    name: str
    inner: Inner
    runs: dict
    series: tuple


class TestResultToJsonable:
    def test_nested_dataclasses(self):
        outer = Outer("x", Inner(1.5), {0.5: Inner(2.0)}, (1, 2))
        payload = result_to_jsonable(outer)
        assert payload == {
            "name": "x",
            "inner": {"value": 1.5},
            "runs": {"0.5": {"value": 2.0}},
            "series": [1, 2],
        }

    def test_infinity_becomes_string(self):
        assert result_to_jsonable(Inner(math.inf)) == {"value": "inf"}

    def test_rejects_non_data_objects(self):
        with pytest.raises(ConfigurationError):
            result_to_jsonable(Inner)  # a class, not an instance
        with pytest.raises(ConfigurationError):
            result_to_jsonable(lambda: None)

    def test_real_experiment_result_serializes(self):
        from repro.experiments import fig3

        payload = result_to_jsonable(fig3.run())
        text = json.dumps(payload)
        assert "throughput_change" in text

    def test_table2_result_serializes(self):
        from repro.experiments import table2
        from repro.experiments.common import EvalConfig

        config = replace(
            EvalConfig(), min_instructions=400_000, warmup_instructions=300_000
        )
        payload = result_to_jsonable(table2.run(config=config))
        assert "analytical" in payload
        json.dumps(payload)  # strict-JSON encodable


class TestWriteJson:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "out.json"
        write_json(Outer("y", Inner(3.0), {}, ()), path)
        loaded = json.loads(path.read_text())
        assert loaded["inner"]["value"] == 3.0


class TestCliOutputFlags:
    def test_output_writes_rendered_text(self, tmp_path, capsys):
        out = tmp_path / "fig3.txt"
        assert main(["fig3", "--output", str(out)]) == 0
        assert "Figure 3" in out.read_text()

    def test_json_writes_result(self, tmp_path, capsys):
        out = tmp_path / "fig3.json"
        assert main(["fig3", "--json", str(out)]) == 0
        loaded = json.loads(out.read_text())
        assert "series" in loaded
