"""Module summaries, symbol resolution, and the project call graph."""

import ast
import textwrap

from repro.analysis.callgraph import (
    build_graph,
    module_dotted_name,
    summarize_module,
)
from repro.analysis.registry import ModuleInfo


def _mod(relpath: str, source: str) -> ModuleInfo:
    source = textwrap.dedent(source)
    return ModuleInfo(relpath=relpath, tree=ast.parse(source), source=source)


def _summaries(**files: str) -> dict:
    return {
        relpath: summarize_module(_mod(relpath, source))
        for relpath, source in files.items()
    }


class TestModuleDottedName:
    def test_strips_src_prefix_and_extension(self):
        assert module_dotted_name("src/repro/engine/soe.py") == "repro.engine.soe"

    def test_package_init_names_the_package(self):
        assert module_dotted_name("src/repro/telemetry/__init__.py") == (
            "repro.telemetry"
        )


class TestSummarizeModule:
    def test_functions_methods_and_classes(self):
        summary = summarize_module(
            _mod(
                "src/repro/m.py",
                """
                class Engine:
                    def run(self):
                        return self.step()

                    def step(self):
                        return 1

                def helper():
                    return Engine()
                """,
            )
        )
        assert set(summary.functions) == {"Engine.run", "Engine.step", "helper"}
        assert summary.functions["Engine.run"].qualname == "repro.m.Engine.run"
        assert summary.functions["Engine.run"].cls == "Engine"
        assert summary.classes["Engine"].methods == ("run", "step")

    def test_imports_and_from_imports(self):
        summary = summarize_module(
            _mod(
                "src/repro/pkg/m.py",
                """
                import numpy as np
                from repro.engine.soe import run_soe as go
                from .sibling import thing
                """,
            )
        )
        assert summary.imports["np"] == "numpy"
        assert summary.from_imports["go"] == ("repro.engine.soe", "run_soe")
        # Relative imports anchor at the enclosing package.
        assert summary.from_imports["thing"] == ("repro.pkg.sibling", "thing")

    def test_fork_safe_marker(self):
        summary = summarize_module(
            _mod(
                "src/repro/m.py",
                """
                _CACHE = {}
                # fork-safe: rebuilt lazily in every process
                _MEMO = []
                LIMIT = 10
                """,
            )
        )
        assert not summary.globals["_CACHE"].fork_safe
        assert summary.globals["_MEMO"].fork_safe

    def test_global_mutations_detected(self):
        summary = summarize_module(
            _mod(
                "src/repro/m.py",
                """
                _ITEMS = []
                _STATE = None

                def record(x):
                    _ITEMS.append(x)

                def reset():
                    global _STATE
                    _STATE = object()
                """,
            )
        )
        record = summary.functions["record"].mutations
        assert [(m.name, m.how) for m in record] == [("_ITEMS", ".append()")]
        reset = summary.functions["reset"].mutations
        assert [(m.name, m.how) for m in reset] == [("_STATE", "global-assign")]

    def test_call_vs_ref_sites(self):
        summary = summarize_module(
            _mod(
                "src/repro/m.py",
                """
                def a():
                    pass

                def b():
                    a()
                    callback = a
                """,
            )
        )
        sites = summary.functions["b"].calls
        by_ref = {(s.callee, s.ref) for s in sites}
        assert ("a", False) in by_ref  # called
        assert ("a", True) in by_ref  # referenced as a value

    def test_nested_defs_fold_into_enclosing_function(self):
        summary = summarize_module(
            _mod(
                "src/repro/m.py",
                """
                def outer():
                    def inner():
                        target()
                    return inner
                """,
            )
        )
        assert "outer" in summary.functions
        assert "inner" not in summary.functions
        assert any(
            s.callee == "target" for s in summary.functions["outer"].calls
        )


class TestBuildGraph:
    def test_cross_module_call_edge(self):
        graph = build_graph(
            _summaries(**{
                "src/repro/a.py": """
                    from repro.b import helper

                    def run():
                        helper()
                """,
                "src/repro/b.py": """
                    def helper():
                        pass
                """,
            })
        )
        assert graph.call_edges["repro.a.run"] == ("repro.b.helper",)

    def test_reexport_chain_is_chased(self):
        graph = build_graph(
            _summaries(**{
                "src/repro/pkg/__init__.py": """
                    from repro.pkg.impl import helper
                """,
                "src/repro/pkg/impl.py": """
                    def helper():
                        pass
                """,
                "src/repro/a.py": """
                    from repro.pkg import helper

                    def run():
                        helper()
                """,
            })
        )
        assert graph.call_edges["repro.a.run"] == ("repro.pkg.impl.helper",)

    def test_self_method_through_base_class(self):
        graph = build_graph(
            _summaries(**{
                "src/repro/m.py": """
                    class Base:
                        def step(self):
                            pass

                    class Engine(Base):
                        def run(self):
                            self.step()
                """,
            })
        )
        assert graph.call_edges["repro.m.Engine.run"] == ("repro.m.Base.step",)

    def test_constructed_class_links_to_init(self):
        graph = build_graph(
            _summaries(**{
                "src/repro/m.py": """
                    class Widget:
                        def __init__(self):
                            pass

                    def make():
                        return Widget()
                """,
            })
        )
        assert graph.call_edges["repro.m.make"] == ("repro.m.Widget.__init__",)

    def test_self_recursion_and_unresolved_calls_get_no_edge(self):
        graph = build_graph(
            _summaries(**{
                "src/repro/m.py": """
                    def loop(n):
                        if n:
                            loop(n - 1)
                        return mystery(n)
                """,
            })
        )
        assert "repro.m.loop" not in graph.call_edges

    def test_callers_of_reverses_edges(self):
        graph = build_graph(
            _summaries(**{
                "src/repro/m.py": """
                    def a():
                        shared()

                    def b():
                        shared()

                    def shared():
                        pass
                """,
            })
        )
        reverse = graph.callers_of()
        assert reverse["repro.m.shared"] == ["repro.m.a", "repro.m.b"]
