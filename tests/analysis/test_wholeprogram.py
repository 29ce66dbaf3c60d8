"""Whole-program rules RL009-RL012 against synthetic multi-file projects.

The fixtures use the real resolution machinery end to end
(``check_project`` builds summaries, the call graph, and effect
propagation exactly as ``run_lint`` does), so the tests pin the rules'
cross-module behavior, not just their per-file parsing.
"""

import textwrap

from repro.analysis.engine import check_project
from repro.analysis.registry import get_rule


def _project(rule_id: str, files: dict, docs: dict = None):
    sources = {
        relpath: textwrap.dedent(source) for relpath, source in files.items()
    }
    return check_project(get_rule(rule_id), sources, docs=docs)


# ---------------------------------------------------------------------------
# RL009 determinism-taint
# ---------------------------------------------------------------------------

#: The issue's acceptance scenario: an unseeded ``random.random()`` two
#: calls below a kernel function in engine/soe.py.
TAINTED_KERNEL = {
    "src/repro/engine/soe.py": """
        from repro.metrics.jitter import perturb

        def run(x):
            return perturb(x)
    """,
    "src/repro/metrics/jitter.py": """
        import random

        def perturb(x):
            return x + noise()

        def noise():
            return random.random()
    """,
}


class TestDeterminismTaint:
    def test_kernel_reaching_rng_two_calls_down_is_flagged(self):
        findings = _project("RL009", TAINTED_KERNEL)
        assert len(findings) == 1
        (finding,) = findings
        assert finding.path == "src/repro/engine/soe.py"
        assert finding.rule == "RL009"
        # The message names the full propagation chain and the concrete
        # source in the *other* file.
        assert "repro.engine.soe.run" in finding.message
        assert "repro.metrics.jitter.perturb" in finding.message
        assert "repro.metrics.jitter.noise" in finding.message
        assert "random.random" in finding.message
        assert "src/repro/metrics/jitter.py" in finding.message

    def test_seeded_generator_is_clean(self):
        findings = _project(
            "RL009",
            {
                "src/repro/engine/soe.py": """
                    from repro.metrics.jitter import perturb

                    def run(x, seed):
                        return perturb(x, seed)
                """,
                "src/repro/metrics/jitter.py": """
                    import random

                    def perturb(x, seed):
                        return x + random.Random(seed).random()
                """,
            },
        )
        assert findings == []

    def test_direct_kernel_effect_is_left_to_per_file_rules(self):
        findings = _project(
            "RL009",
            {
                "src/repro/engine/soe.py": """
                    import random

                    def run(x):
                        return x + random.random()
                """,
            },
        )
        assert findings == []  # RL001's jurisdiction, not RL009's

    def test_non_kernel_caller_is_not_flagged(self):
        findings = _project(
            "RL009",
            {
                "src/repro/metrics/report.py": """
                    import random

                    def sample():
                        return random.random()

                    def render():
                        return sample()
                """,
            },
        )
        assert findings == []

    def test_innermost_kernel_function_reports_once(self):
        findings = _project(
            "RL009",
            {
                "src/repro/engine/soe.py": """
                    from repro.engine.step import advance

                    def run(x):
                        return advance(x)
                """,
                "src/repro/engine/step.py": """
                    from repro.metrics.jitter import noise

                    def advance(x):
                        return x + noise()
                """,
                "src/repro/metrics/jitter.py": """
                    import random

                    def noise():
                        return random.random()
                """,
            },
        )
        # Only the kernel function closest to the source reports; its
        # kernel callers carry the same taint through it.
        assert [f.path for f in findings] == ["src/repro/engine/step.py"]

    def test_wallclock_taint_is_flagged_too(self):
        findings = _project(
            "RL009",
            {
                "src/repro/cpu/sim.py": """
                    from repro.metrics.clock import stamp

                    def step():
                        return stamp()
                """,
                "src/repro/metrics/clock.py": """
                    import time

                    def stamp():
                        return time.time()
                """,
            },
        )
        assert len(findings) == 1
        assert "wall clock" in findings[0].message

    def test_suppression_at_the_kernel_anchor(self):
        # The finding anchors at the kernel def even though the taint
        # source lives in another file; a pragma above the def works.
        files = dict(TAINTED_KERNEL)
        files["src/repro/engine/soe.py"] = """
            from repro.metrics.jitter import perturb

            # repro-lint: disable=RL009 - perturbation reviewed, test-only path
            def run(x):
                return perturb(x)
        """
        assert _project("RL009", files) == []

    def test_sanctioned_source_does_not_seed_taint(self):
        # An inline RL001 suppression at the source line is a reviewed
        # exception; the whole-program pass honours it and seeds no
        # taint from that line.
        files = dict(TAINTED_KERNEL)
        files["src/repro/metrics/jitter.py"] = """
            import random

            def perturb(x):
                return x + noise()

            def noise():
                return random.random()  # repro-lint: disable=RL001 - display only
        """
        assert _project("RL009", files) == []


# ---------------------------------------------------------------------------
# RL010 fork-unsafe-state
# ---------------------------------------------------------------------------

SUPERVISOR = """
    class Supervisor:
        def __init__(self, call):
            self.call = call

        def run(self):
            return self.call

    class TaskPool:
        def __init__(self, call):
            self.call = call

    def _pool_worker_main(conn, parent_end, call):
        return call(conn)
"""


class TestForkUnsafeState:
    def test_worker_task_mutating_global_is_flagged(self):
        findings = _project(
            "RL010",
            {
                "src/repro/experiments/supervisor.py": SUPERVISOR,
                "src/repro/experiments/work.py": """
                    from repro.experiments.supervisor import Supervisor

                    _RESULTS = []

                    def task(item):
                        _RESULTS.append(item)
                        return item

                    def launch(items):
                        sup = Supervisor(task)
                        return sup.run()
                """,
            },
        )
        assert len(findings) == 1
        (finding,) = findings
        assert finding.path == "src/repro/experiments/work.py"
        assert "_RESULTS" in finding.message
        assert "repro.experiments.work.task" in finding.message
        assert "fork-safe" in finding.message

    def test_fork_safe_marker_documents_the_global(self):
        findings = _project(
            "RL010",
            {
                "src/repro/experiments/supervisor.py": SUPERVISOR,
                "src/repro/experiments/work.py": """
                    from repro.experiments.supervisor import Supervisor

                    # fork-safe: per-process scratch, merged via the task result
                    _RESULTS = []

                    def task(item):
                        _RESULTS.append(item)
                        return item

                    def launch(items):
                        sup = Supervisor(task)
                        return sup.run()
                """,
            },
        )
        assert findings == []

    def test_parent_side_mutation_is_not_flagged(self):
        findings = _project(
            "RL010",
            {
                "src/repro/experiments/supervisor.py": SUPERVISOR,
                "src/repro/experiments/work.py": """
                    from repro.experiments.supervisor import Supervisor

                    _DEGRADED = []

                    def task(item):
                        return item

                    def launch(items):
                        sup = Supervisor(task)
                        outcome = sup.run()
                        _DEGRADED.append(outcome)
                        return outcome
                """,
            },
        )
        # launch hands ``task`` to workers but runs in the parent
        # itself; its own mutation is not worker state.
        assert findings == []

    def test_mutation_reached_through_worker_helper(self):
        findings = _project(
            "RL010",
            {
                "src/repro/experiments/supervisor.py": SUPERVISOR + """
    from repro.experiments.state import bump

    def helper(item):
        return bump(item)
""",
                "src/repro/experiments/state.py": """
                    _COUNT = {}

                    def bump(item):
                        _COUNT[item] = 1
                        return item
                """,
                "src/repro/experiments/work.py": """
                    from repro.experiments.supervisor import Supervisor, helper

                    def launch(items):
                        sup = Supervisor(helper)
                        return sup.run()
                """,
            },
        )
        assert len(findings) == 1
        assert findings[0].path == "src/repro/experiments/state.py"
        assert "_COUNT" in findings[0].message

    def test_task_shipped_through_task_pool_is_flagged(self):
        findings = _project(
            "RL010",
            {
                "src/repro/experiments/supervisor.py": SUPERVISOR,
                "src/repro/service/app.py": """
                    from repro.experiments.supervisor import TaskPool

                    _SEEN = set()

                    def execute(item):
                        _SEEN.add(item)
                        return item

                    def start():
                        return TaskPool(execute)
                """,
            },
        )
        assert len(findings) == 1
        (finding,) = findings
        assert finding.path == "src/repro/service/app.py"
        assert "_SEEN" in finding.message
        assert "repro.service.app.execute" in finding.message
        assert "handed to workers by repro.service.app.start" in finding.message

    def test_real_tree_has_every_worker_root(self):
        """The rule skips roots the graph lacks, so a renamed worker
        entry point or dispatcher would switch it off without a word."""
        from repro.analysis.engine import default_repo_root, run_lint

        result = run_lint(repo_root=default_repo_root(), select=["RL010"])
        graph = result.project.graph()
        rule = get_rule("RL010")
        for qualname in (rule.CHILD_MAIN, *rule.DISPATCHERS):
            assert qualname in graph.functions, qualname

    def test_no_dispatchers_means_no_findings(self):
        findings = _project(
            "RL010",
            {
                "src/repro/experiments/plain.py": """
                    _STATE = []

                    def mutate(x):
                        _STATE.append(x)
                """,
            },
        )
        assert findings == []


# ---------------------------------------------------------------------------
# RL011 backend-parity
# ---------------------------------------------------------------------------

PARITY_BASE = {
    "src/repro/engine/backend.py": """
        from repro.core.controller import FairnessParams

        class SoeRunSpec:
            streams: tuple
            fairness: FairnessParams
            policy: object
    """,
    "src/repro/core/controller.py": """
        class FairnessParams:
            fairness_target: float
            smoothing: float
    """,
    "src/repro/core/policies.py": """
        class PolicySpec:
            pass

        def register_policy(spec):
            pass

        register_policy(PolicySpec(name="fairness", batch_capable=True))
        register_policy(PolicySpec(name="rr-timeshare", batch_capable=False))
    """,
}

#: supports() refuses specs carrying a scalar-only policy config, and
#: the kernel consumes every remaining field.
BATCH_WITH_REFUSAL = """
    class BatchBackend:
        def supports(self, spec):
            if spec.policy is not None:
                return False
            fairness = spec.fairness
            return fairness is None or fairness.smoothing == 0.0

        def run_batch(self, specs):
            return [
                (s.streams, s.fairness.fairness_target) for s in specs
            ]
"""


class TestBackendParity:
    def test_consume_or_refuse_everything_is_clean(self):
        files = dict(PARITY_BASE)
        files["src/repro/engine/batch.py"] = BATCH_WITH_REFUSAL
        assert _project("RL011", files) == []

    def test_deleting_the_policy_refusal_is_caught(self):
        # The issue's acceptance scenario: drop supports()'s refusal of
        # scalar-only policy specs and the rule must object.
        files = dict(PARITY_BASE)
        files["src/repro/engine/batch.py"] = """
            class BatchBackend:
                def supports(self, spec):
                    fairness = spec.fairness
                    return fairness is None or fairness.smoothing == 0.0

                def run_batch(self, specs):
                    return [
                        (s.streams, s.fairness.fairness_target) for s in specs
                    ]
        """
        findings = _project("RL011", files)
        messages = "\n".join(f.message for f in findings)
        # Both guarantees collapse: the spec field is silently ignored
        # and the batch_capable=False policy is no longer refused.
        assert "SoeRunSpec.policy" in messages
        assert "rr-timeshare" in messages

    def test_silently_ignored_spec_field_is_flagged(self):
        files = dict(PARITY_BASE)
        files["src/repro/engine/backend.py"] = """
            from repro.core.controller import FairnessParams

            class SoeRunSpec:
                streams: tuple
                fairness: FairnessParams
                policy: object
                trace_tag: str
        """
        files["src/repro/engine/batch.py"] = BATCH_WITH_REFUSAL
        findings = _project("RL011", files)
        assert len(findings) == 1
        assert "SoeRunSpec.trace_tag" in findings[0].message
        assert findings[0].path == "src/repro/engine/backend.py"

    def test_silently_ignored_nested_field_is_flagged(self):
        files = dict(PARITY_BASE)
        files["src/repro/core/controller.py"] = """
            class FairnessParams:
                fairness_target: float
                smoothing: float
                deficit_cap: float
        """
        files["src/repro/engine/batch.py"] = BATCH_WITH_REFUSAL
        findings = _project("RL011", files)
        assert len(findings) == 1
        assert "FairnessParams.deficit_cap" in findings[0].message
        assert "SoeRunSpec.fairness" in findings[0].message
        assert findings[0].path == "src/repro/core/controller.py"

    def test_rule_is_inert_without_the_backend_layout(self):
        findings = _project(
            "RL011",
            {"src/repro/engine/other.py": "def f():\n    return 1\n"},
        )
        assert findings == []


# ---------------------------------------------------------------------------
# RL012 telemetry-schema-drift
# ---------------------------------------------------------------------------

EVENTS_OK = """
    SCHEMA_VERSION = 2
    RUNNER = "runner"

    EVENT_SCHEMAS = {
        "task": (RUNNER, {"label": None, "phase": None}),
    }

    def task_event(label, phase):
        return {
            "event": "task",
            "cat": RUNNER,
            "v": SCHEMA_VERSION,
            "label": label,
            "phase": phase,
        }
"""

DOC_OK = textwrap.dedent(
    """
    Events carry the envelope with schema v2.

    | category | event | emitted by | payload |
    | --- | --- | --- | --- |
    | `runner` | `task` | the runner | `label`, `phase` |
    """
)


def _telemetry(events: str, doc: str = DOC_OK):
    return _project(
        "RL012",
        {"src/repro/telemetry/events.py": events},
        docs={"docs/TELEMETRY.md": doc},
    )


class TestTelemetrySchemaDrift:
    def test_consistent_surfaces_are_clean(self):
        assert _telemetry(EVENTS_OK) == []

    def test_builder_payload_drift_is_flagged(self):
        events = EVENTS_OK.replace('"phase": phase,\n', "")
        findings = _telemetry(events)
        assert any(
            "payload disagrees" in f.message and "phase" in f.message
            for f in findings
        )

    def test_missing_doc_row_is_flagged(self):
        doc = DOC_OK.replace("| `runner` | `task` | the runner |", "| x | y |")
        findings = _telemetry(EVENTS_OK, doc)
        assert any("no row" in f.message for f in findings)

    def test_doc_row_missing_a_field_is_flagged(self):
        doc = DOC_OK.replace("`label`, `phase`", "`label`")
        findings = _telemetry(EVENTS_OK, doc)
        assert any(
            "omits payload field" in f.message and "phase" in f.message
            for f in findings
        )

    def test_hand_rolled_version_is_flagged(self):
        events = EVENTS_OK.replace('"v": SCHEMA_VERSION,', '"v": 1,')
        findings = _telemetry(events)
        assert any("SCHEMA_VERSION" in f.message for f in findings)

    def test_category_mismatch_is_flagged(self):
        events = EVENTS_OK.replace('"cat": RUNNER,', '"cat": "controller",')
        findings = _telemetry(events)
        assert any("declares" in f.message for f in findings)

    def test_schema_entry_without_builder_is_flagged(self):
        events = EVENTS_OK.replace(
            '"task": (RUNNER, {"label": None, "phase": None}),',
            '"task": (RUNNER, {"label": None, "phase": None}),\n'
            '    "ghost": (RUNNER, {"x": None}),',
        )
        findings = _telemetry(events)
        assert any("'ghost'" in f.message and "no" in f.message for f in findings)

    def test_stale_doc_version_is_flagged(self):
        doc = DOC_OK.replace("schema v2", "schema v1")
        findings = _telemetry(EVENTS_OK, doc)
        assert any("schema" in f.message and "version" in f.message for f in findings)


class TestHeadTelemetryDocCoverage:
    def test_every_schema_event_has_a_doc_row(self):
        # Regression for the drift RL012 caught on introduction: the
        # ``batch`` event existed in EVENT_SCHEMAS but had no row in
        # docs/TELEMETRY.md.
        from repro.analysis.engine import default_repo_root
        from repro.telemetry.events import EVENT_SCHEMAS

        doc = (default_repo_root() / "docs" / "TELEMETRY.md").read_text()
        rows = [
            line for line in doc.splitlines() if line.lstrip().startswith("|")
        ]
        for event in EVENT_SCHEMAS:
            assert any(
                f"`{event}`" in row for row in rows
            ), f"docs/TELEMETRY.md has no table row for event {event!r}"
