"""Inline-pragma suppression forms and their round trip through
check_source."""

import textwrap

from repro.analysis.engine import check_source
from repro.analysis.findings import Finding
from repro.analysis.registry import get_rule
from repro.analysis.suppressions import parse_suppressions

CORE = "src/repro/core/snippet.py"


def _finding(line: int, rule: str = "RL004") -> Finding:
    return Finding(path=CORE, line=line, col=0, rule=rule, message="m")


class TestPragmaParsing:
    def test_same_line_pragma(self):
        sup = parse_suppressions("x = 1.0 == y  # repro-lint: disable=RL004\n")
        assert sup.is_suppressed(_finding(1))
        assert not sup.is_suppressed(_finding(2))

    def test_next_line_pragma(self):
        source = "# repro-lint: disable=RL004 - sentinel\nx = 1.0 == y\n"
        sup = parse_suppressions(source)
        assert sup.is_suppressed(_finding(2))
        # A comment-only pragma does not cover its own line's rule hits
        # elsewhere, nor lines past the next one.
        assert not sup.is_suppressed(_finding(3))

    def test_multiple_rules_one_pragma(self):
        sup = parse_suppressions("x = f()  # repro-lint: disable=RL001,RL004\n")
        assert sup.is_suppressed(_finding(1, "RL001"))
        assert sup.is_suppressed(_finding(1, "RL004"))
        assert not sup.is_suppressed(_finding(1, "RL002"))

    def test_disable_file_pragma(self):
        source = "# repro-lint: disable-file=RL003\ns = {1}\nfor x in s: pass\n"
        sup = parse_suppressions(source)
        assert sup.is_suppressed(_finding(3, "RL003"))
        assert sup.is_suppressed(_finding(99, "RL003"))
        assert not sup.is_suppressed(_finding(3, "RL004"))

    def test_rules_used_collects_all(self):
        source = (
            "# repro-lint: disable-file=RL003\n"
            "x = 1.0 == y  # repro-lint: disable=RL004\n"
        )
        assert parse_suppressions(source).rules_used == frozenset(
            {"RL003", "RL004"}
        )


class TestSuppressionEndToEnd:
    def test_suppressed_finding_dropped_by_check_source(self):
        rule = get_rule("RL004")
        noisy = "x = 1.0\nok = x == 0.5\n"
        quiet = "x = 1.0\nok = x == 0.5  # repro-lint: disable=RL004 - why\n"
        assert check_source(rule, noisy, CORE)
        assert check_source(rule, quiet, CORE) == []

    def test_wrong_rule_id_does_not_suppress(self):
        rule = get_rule("RL004")
        source = "x = 1.0\nok = x == 0.5  # repro-lint: disable=RL001\n"
        assert len(check_source(rule, source, CORE)) == 1

    def test_next_line_form_end_to_end(self):
        rule = get_rule("RL004")
        source = textwrap.dedent(
            """\
            x = 1.0
            # repro-lint: disable=RL004 - exact sentinel
            ok = x == 0.5
            """
        )
        assert check_source(rule, source, CORE) == []


class TestDecoratedDefs:
    """Next-line pragmas must land on the ``def``, not the decorator.

    Rules anchor findings at the function definition line; a pragma
    written above the decorator stack still has to cover the def that
    eventually follows, however many decorator lines intervene.
    """

    def test_pragma_above_single_decorator(self):
        source = textwrap.dedent(
            """\
            # repro-lint: disable=RL004 - reviewed
            @cached
            def f(x):
                return x == 0.5
            """
        )
        sup = parse_suppressions(source)
        assert sup.is_suppressed(_finding(3))  # the def line
        assert not sup.is_suppressed(_finding(2))  # not the decorator

    def test_pragma_above_stacked_decorators(self):
        source = textwrap.dedent(
            """\
            # repro-lint: disable=RL004 - reviewed
            @outer
            @inner
            @cached
            def f(x):
                return x == 0.5
            """
        )
        assert parse_suppressions(source).is_suppressed(_finding(5))

    def test_pragma_above_multiline_decorator_arguments(self):
        source = textwrap.dedent(
            """\
            # repro-lint: disable=RL004 - reviewed
            @parametrize(
                "x",
                [0.5, 1.0],
            )
            def f(x):
                return x == 0.5
            """
        )
        assert parse_suppressions(source).is_suppressed(_finding(6))

    def test_multi_rule_comma_list_with_spaces_on_decorated_def(self):
        source = textwrap.dedent(
            """\
            # repro-lint: disable=RL001, RL004 - rng + sentinel reviewed
            @cached
            def f(x):
                return random() == x
            """
        )
        sup = parse_suppressions(source)
        assert sup.is_suppressed(_finding(3, "RL001"))
        assert sup.is_suppressed(_finding(3, "RL004"))
        assert not sup.is_suppressed(_finding(3, "RL002"))
