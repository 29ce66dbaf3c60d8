"""Direct-effect detection, detector parity, and fixed-point taint."""

import ast
import textwrap

import pytest

from repro.analysis.callgraph import build_graph, summarize_module
from repro.analysis.dataflow import EFFECT_KINDS, EFFECT_RULES, propagate
from repro.analysis.engine import check_source
from repro.analysis.registry import ModuleInfo, get_rule
from tests.analysis.test_rules import (
    CORE,
    RL001_ALLOWED,
    RL001_FLAGGED,
    RL002_FLAGGED,
    RL003_ALLOWED,
    RL003_FLAGGED,
)


def _mod(relpath: str, source: str) -> ModuleInfo:
    source = textwrap.dedent(source)
    return ModuleInfo(relpath=relpath, tree=ast.parse(source), source=source)


def _effects(source: str, fn: str = "f") -> set:
    summary = summarize_module(_mod("src/repro/m.py", source))
    return {(e.kind, e.detail) for e in summary.functions[fn].effects}


def _graph(**files: str):
    summaries = {
        relpath: summarize_module(_mod(relpath, source))
        for relpath, source in files.items()
    }
    return build_graph(summaries)


class TestLattice:
    def test_every_kind_has_a_per_file_rule(self):
        assert EFFECT_KINDS == ("rng", "wallclock", "set_iter")
        assert set(EFFECT_RULES) == set(EFFECT_KINDS)


class TestDirectEffects:
    def test_module_global_rng(self):
        effects = _effects(
            """
            import random

            def f():
                return random.random()
            """
        )
        assert ("rng", "random.random") in effects

    def test_from_imported_rng_name(self):
        effects = _effects(
            """
            from random import randint

            def f():
                return randint(0, 1)
            """
        )
        assert ("rng", "randint") in effects

    def test_seeded_generators_are_allowed(self):
        effects = _effects(
            """
            import random
            import numpy

            def f(seed):
                return random.Random(seed), numpy.random.default_rng(seed)
            """
        )
        assert not {e for e in effects if e[0] == "rng"}

    def test_wallclock_sources(self):
        effects = _effects(
            """
            import time
            from datetime import datetime

            def f():
                return time.monotonic(), datetime.now()
            """
        )
        assert ("wallclock", "time.monotonic") in effects
        assert ("wallclock", "datetime.now") in effects

    def test_set_iteration(self):
        effects = _effects(
            """
            def f(xs):
                s = set(xs)
                return [x for x in s]
            """
        )
        assert any(kind == "set_iter" for kind, _ in effects)

    def test_io_and_global_mutation_are_not_effects(self):
        summary = summarize_module(
            _mod(
                "src/repro/m.py",
                """
                _LOG = []

                def f(path):
                    _LOG.append(path)
                    with open(path) as fh:
                        return fh.read(), path.read_text()
                """,
            )
        )
        fn = summary.functions["f"]
        assert fn.effects == ()
        # RL010 reads the mutation directly, not as an effect.
        assert [(m.name, m.how) for m in fn.mutations] == [("_LOG", ".append()")]

    def test_pure_function_has_no_effects(self):
        assert _effects("def f(x):\n    return x * 2\n") == set()


class TestPropagation:
    def test_taint_flows_up_the_call_chain(self):
        graph = _graph(**{
            "src/repro/a.py": """
                from repro.b import jitter

                def run():
                    return jitter()
            """,
            "src/repro/b.py": """
                import random

                def jitter():
                    return random.random()
            """,
        })
        seeds = {
            q: n.effects for q, n in graph.functions.items() if n.effects
        }
        taints = propagate(graph, seeds)
        taint = taints["repro.a.run"]["rng"]
        assert taint.chain == ("repro.a.run", "repro.b.jitter")
        assert taint.source == "repro.b.jitter"
        assert not taint.direct
        assert taints["repro.b.jitter"]["rng"].direct

    def test_shortest_chain_wins(self):
        graph = _graph(**{
            "src/repro/m.py": """
                import random

                def top():
                    middle()
                    source()

                def middle():
                    source()

                def source():
                    return random.random()
            """,
        })
        seeds = {
            q: n.effects for q, n in graph.functions.items() if n.effects
        }
        taints = propagate(graph, seeds)
        # top reaches the source both directly and via middle; the
        # shortest witness chain is reported.
        assert taints["repro.m.top"]["rng"].chain == (
            "repro.m.top",
            "repro.m.source",
        )

    def test_propagation_is_deterministic(self):
        files = {
            "src/repro/m.py": """
                import random

                def a():
                    z()

                def b():
                    z()

                def z():
                    return random.random()
            """,
        }
        results = []
        for _ in range(3):
            graph = _graph(**files)
            seeds = {
                q: n.effects for q, n in graph.functions.items() if n.effects
            }
            taints = propagate(graph, seeds)
            results.append(
                {
                    q: {k: t.chain for k, t in per.items()}
                    for q, per in taints.items()
                }
            )
        assert results[0] == results[1] == results[2]

    def test_ref_edges_do_not_propagate(self):
        graph = _graph(**{
            "src/repro/m.py": """
                import random

                def holder():
                    callback = source

                def source():
                    return random.random()
            """,
        })
        seeds = {
            q: n.effects for q, n in graph.functions.items() if n.effects
        }
        assert "repro.m.holder" not in propagate(graph, seeds)


def _in_function(source: str) -> str:
    """``source`` moved into a function body (its imports too)."""
    return "def wrapper():\n" + textwrap.indent(source, "    ")


#: Every snippet of the RL001-RL003 tests, plus the shapes a second
#: detector once missed (function-local imports, SystemRandom, a
#: module-level set iterated in a helper).
PARITY_SNIPPETS = [
    *RL001_FLAGGED,
    *RL001_ALLOWED,
    *RL002_FLAGGED,
    "import time\nx = time.gmtime\n",
    *RL003_FLAGGED,
    *RL003_ALLOWED,
    "def f():\n    import time\n    return time.time()\n",
    "import random\ndef f():\n    return random.SystemRandom()\n",
    "from random import SystemRandom\ndef f():\n    return SystemRandom()\n",
    "S = {1, 2}\ndef f():\n    return [x for x in S]\n",
]


class TestDetectorParity:
    """Per-file findings and summary seeds come from one detector.

    Every RL001/RL002/RL003 finding inside a function body has a seed
    of the same kind anchored at its line in that function's summary,
    and every seed has a finding of its kind at its anchor.
    A seed's anchor is its own line, or the line of the ``from`` import
    a bare name came from (which may sit outside the function).
    """

    @pytest.mark.parametrize("wrap", [False, True], ids=["as-is", "in-def"])
    @pytest.mark.parametrize("source", PARITY_SNIPPETS)
    def test_findings_and_seeds_agree(self, source, wrap):
        if wrap:
            source = _in_function(source)
        tree = ast.parse(source)
        bodies = {
            node.name: (
                (node.body[0].lineno, node.body[0].col_offset),
                (node.end_lineno, node.end_col_offset),
            )
            for node in tree.body
            if isinstance(node, ast.FunctionDef)
        }
        kinds = {rule: kind for kind, rule in EFFECT_RULES.items()}
        findings = set()
        in_bodies = set()
        for rule_id, kind in kinds.items():
            for finding in check_source(get_rule(rule_id), source, CORE):
                findings.add((kind, finding.line))
                where = (finding.line, finding.col)
                for name, (start, end) in bodies.items():
                    if start <= where < end:
                        in_bodies.add((name, kind, finding.line))
        summary = summarize_module(ModuleInfo(CORE, tree, source))
        seeds = {
            (name, effect.kind, effect.anchor)
            for name, fn in summary.functions.items()
            for effect in fn.effects
        }
        assert in_bodies <= seeds
        assert {(kind, anchor) for _name, kind, anchor in seeds} <= findings
