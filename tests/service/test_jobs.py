"""Job spec parsing, validation, and content-addressed identity."""

import json
from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.experiments.common import EvalConfig
from repro.service.jobs import JOB_STATES, Job, JobSpec, job_id, parse_job_spec
from repro.workloads.pairs import BenchmarkPair


def _spec(**overrides):
    payload = {"tenant": "acme", "pair": "gcc:eon", "scale": "quick"}
    payload.update(overrides)
    return parse_job_spec(payload)


class TestParseJobSpec:
    def test_minimal_spec_defaults_to_quick_scale(self):
        spec = _spec()
        assert spec.tenant == "acme"
        assert spec.pair == BenchmarkPair("gcc", "eon")
        assert spec.config == EvalConfig.quick()
        assert spec.deadline_s is None

    def test_scale_selects_the_base_config(self):
        assert _spec(scale="default").config == EvalConfig()
        assert _spec(scale="paper").config == EvalConfig.paper_scale()

    def test_config_overrides_apply_on_top_of_the_scale(self):
        spec = _spec(config={"fairness_levels": [0, 0.5], "miss_lat": 200})
        assert spec.config.fairness_levels == (0.0, 0.5)
        assert spec.config.miss_lat == 200
        # Untouched fields keep the quick-scale values.
        assert spec.config.sample_period == EvalConfig.quick().sample_period

    def test_policy_params_object_becomes_sorted_tuple(self):
        spec = _spec(
            config={
                "policy": "rr-timeshare",
                "policy_params": {"cycle_quota": 500},
            }
        )
        assert spec.config.policy == "rr-timeshare"
        assert spec.config.policy_params == (("cycle_quota", 500.0),)

    def test_deadline_is_coerced_to_float(self):
        assert _spec(deadline_s=30).deadline_s == 30.0

    @pytest.mark.parametrize(
        "payload",
        [
            "not an object",
            {"pair": "gcc:eon"},  # missing tenant
            {"tenant": "acme"},  # missing pair
            {"tenant": "acme", "pair": "gcc:eon", "bogus": 1},
            {"tenant": "", "pair": "gcc:eon"},
            {"tenant": "bad tenant!", "pair": "gcc:eon"},
            {"tenant": "a" * 65, "pair": "gcc:eon"},
            {"tenant": "acme", "pair": "gcc"},  # no colon
            {"tenant": "acme", "pair": "gcc:nosuchbench"},
            {"tenant": "acme", "pair": "gcc:eon", "scale": "huge"},
            {"tenant": "acme", "pair": "gcc:eon", "config": "xl"},
            {"tenant": "acme", "pair": "gcc:eon", "config": {"bogus": 1}},
            {"tenant": "acme", "pair": "gcc:eon",
             "config": {"fairness_levels": "0,0.5"}},
            {"tenant": "acme", "pair": "gcc:eon", "deadline_s": 0},
            {"tenant": "acme", "pair": "gcc:eon", "deadline_s": -1},
            {"tenant": "acme", "pair": "gcc:eon", "deadline_s": "soon"},
            {"tenant": "acme", "pair": "gcc:eon",
             "config": {"switch_lat": float("inf")}},
            {"tenant": "acme", "pair": "gcc:eon",
             "config": {"sample_period": float("inf")}},
            {"tenant": "acme", "pair": "gcc:eon",
             "config": {"max_cycles_quota": float("nan")}},
            {"tenant": "acme", "pair": "gcc:eon", "deadline_s": float("nan")},
            {"tenant": "acme", "pair": "gcc:eon", "deadline_s": float("inf")},
        ],
    )
    def test_malformed_specs_raise_configuration_error(self, payload):
        with pytest.raises(ConfigurationError):
            parse_job_spec(payload)

    def test_refuses_a_nan_latency_parsed_from_json(self):
        # ``json.loads`` accepts the non-standard ``NaN`` literal; a NaN
        # miss latency would hang the engine, and nothing downstream of
        # admission re-validates.
        payload = json.loads(
            '{"tenant": "acme", "pair": "gcc:eon", "config": {"miss_lat": NaN}}'
        )
        with pytest.raises(ConfigurationError, match="must be finite"):
            parse_job_spec(payload)

    def test_to_json_round_trips_through_the_parser(self):
        spec = _spec(
            config={"fairness_levels": [0, 0.5],
                    "policy": "drr-arbiter",
                    "policy_params": {"quantum": 640}},
            deadline_s=12.5,
        )
        assert parse_job_spec(spec.to_json()) == spec


class TestJobId:
    def test_identical_specs_share_an_id(self):
        assert job_id(_spec(), "v1") == job_id(_spec(), "v1")

    def test_id_is_tenant_scoped(self):
        assert job_id(_spec(), "v1") != job_id(_spec(tenant="rival"), "v1")

    def test_id_depends_on_config_and_code_version(self):
        base = job_id(_spec(), "v1")
        assert base != job_id(_spec(config={"miss_lat": 200}), "v1")
        assert base != job_id(_spec(), "v2")

    def test_id_is_a_short_hex_string(self):
        jid = job_id(_spec(), "v1")
        assert len(jid) == 16
        int(jid, 16)  # must be hex


class TestJob:
    def test_unknown_state_is_rejected(self):
        with pytest.raises(ConfigurationError):
            Job(id="x", spec=_spec(), state="running")

    def test_terminal_states(self):
        terminal = {"completed", "failed", "cached", "expired", "rejected"}
        for state in JOB_STATES:
            job = Job(id="x", spec=_spec(), state=state)
            assert job.terminal == (state in terminal)

    def test_to_json_is_a_status_view_without_the_result(self):
        job = Job(id="abc", spec=_spec(), state="completed",
                  attempts=2, result=object())
        view = job.to_json()
        assert view == {
            "job": "abc",
            "tenant": "acme",
            "pair": "gcc:eon",
            "state": "completed",
            "detail": None,
            "attempts": 2,
            "terminal": True,
        }


class TestJobSpecValidation:
    def test_direct_construction_validates_benchmarks(self):
        with pytest.raises(ConfigurationError):
            JobSpec(
                tenant="acme",
                pair=BenchmarkPair("gcc", "nosuchbench"),
                config=EvalConfig.quick(),
            )

    def test_replacing_with_bad_deadline_revalidates(self):
        spec = _spec()
        with pytest.raises(ConfigurationError):
            replace(spec, deadline_s=-5.0)
