"""Whole-program rules RL009 and RL010 against synthetic projects.

The fixtures use the real resolution machinery end to end
(``check_project`` builds summaries, the call graph, and effect
propagation exactly as ``run_lint`` does), so the tests pin the rules'
cross-module behavior, not just their per-file parsing.
"""

import ast
import textwrap

from repro.analysis.dataflow import scan_module
from repro.analysis.engine import check_project, check_source
from repro.analysis.registry import get_rule


def _project(rule_id: str, files: dict):
    sources = {
        relpath: textwrap.dedent(source) for relpath, source in files.items()
    }
    return check_project(get_rule(rule_id), sources)


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


def _kernel_calling(helper_source: str) -> dict:
    """A kernel function whose one callee lives in ``helper_source``."""
    return {
        "src/repro/engine/soe.py": """
            from repro.metrics.helper import helper

            def run(x):
                return helper(x)
        """,
        "src/repro/metrics/helper.py": helper_source,
    }


class TestOneDetector:
    """RL009 seeds from exactly the sources RL001-RL003 report.

    Each shape below is flagged by its per-file rule; the whole-program
    pass once missed it because it ran a second, drifted detector.
    """

    def _per_file(self, rule_id: str, files: dict) -> list:
        source = textwrap.dedent(files["src/repro/metrics/helper.py"])
        return check_source(
            get_rule(rule_id), source, "src/repro/core/helper.py"
        )

    def _assert_taint(self, rule_id: str, label: str, helper_source: str):
        files = _kernel_calling(helper_source)
        assert self._per_file(rule_id, files)
        findings = _project("RL009", files)
        assert len(findings) == 1
        assert label in findings[0].message
        assert "repro.metrics.helper.helper" in findings[0].message

    def test_function_local_time_import(self):
        self._assert_taint("RL002", "wall clock", """
            def helper(x):
                import time
                return x + time.time()
        """)

    def test_function_local_random_import(self):
        self._assert_taint("RL001", "global RNG", """
            def helper(x):
                import random
                return x + random.random()
        """)

    def test_system_random_attribute(self):
        self._assert_taint("RL001", "global RNG", """
            import random

            def helper(x):
                return x + random.SystemRandom().random()
        """)

    def test_system_random_from_import(self):
        self._assert_taint("RL001", "global RNG", """
            from random import SystemRandom

            def helper(x):
                return x + SystemRandom().random()
        """)

    def test_module_level_set_iterated_in_helper(self):
        self._assert_taint("RL003", "unsorted set iteration", """
            _KINDS = {"a", "b"}

            def helper(x):
                return [x + k for k in _KINDS]
        """)

    def test_set_name_stays_in_the_function_that_binds_it(self):
        # ``collect`` binds ``names`` to a set; ``helper``'s own
        # ``names`` is a list, and iterating it is no set iteration.
        helper_source = """
            import ast
            from typing import List, Set

            def collect(x) -> Set[str]:
                names: Set[str] = set(x)
                return names

            def helper(x):
                names: List[ast.Name] = x
                return [node.id for node in names]
        """
        files = _kernel_calling(helper_source)
        assert self._per_file("RL003", files) == []
        assert _project("RL009", files) == []
        uses = scan_module(ast.parse(textwrap.dedent(helper_source))).uses
        assert [effect for _, effect in uses if effect.kind == "set_iter"] == []

    def test_pragma_on_from_import_sanctions_the_source(self):
        # RL002 reports the import line; a pragma there silences RL002
        # and so sanctions every use of the imported name.
        files = _kernel_calling("""
            from time import perf_counter  # repro-lint: disable=RL002 - reviewed

            def helper(x):
                return x + perf_counter()
        """)
        assert self._per_file("RL002", files) == []
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
