"""Error quality: positions, excerpts, and actionable messages."""

import pytest

from repro.diagnostics.errors import Diagnostic, ParseError, TypeError_
from repro.diagnostics.source import Position, SourceText, Span
from repro.syntax import parse_fg
from repro.fg import typecheck


def error_for(src: str) -> TypeError_:
    with pytest.raises(TypeError_) as excinfo:
        typecheck(parse_fg(src))
    return excinfo.value


class TestSourceText:
    def test_position_at(self):
        src = SourceText("ab\ncd\nef")
        assert src.position_at(0) == Position(1, 1, 0)
        assert src.position_at(3) == Position(2, 1, 3)
        assert src.position_at(7) == Position(3, 2, 7)

    def test_line(self):
        src = SourceText("ab\ncd")
        assert src.line(1) == "ab"
        assert src.line(2) == "cd"
        assert src.line(3) == ""

    def test_excerpt_caret_width(self):
        src = SourceText("let oops = 1 in x")
        span = src.span(4, 8)
        excerpt = src.excerpt(span)
        assert "oops" in excerpt
        assert excerpt.count("^") == 4

    def test_span_merge(self):
        src = SourceText("abcdef")
        a = src.span(0, 2)
        b = src.span(4, 6)
        merged = a.merge(b)
        assert merged.start.offset == 0
        assert merged.end.offset == 6


    def test_offset_span_behaves_like_a_position_span(self):
        # ``SourceText.span`` resolves positions lazily; equality, hashing,
        # ``str``/``repr`` and ``merge`` see the same positions as a span
        # built from them directly.
        src = SourceText("ab\ncd", "f.fg")
        lazy = src.span(3, 5)
        eager = Span(Position(2, 1, 3), Position(2, 3, 5), "f.fg")
        assert lazy == eager and hash(lazy) == hash(eager)
        assert str(lazy) == "f.fg:2:1"
        assert repr(src.span(3, 5)) == repr(eager)
        assert src.span(0, 1).merge(lazy) == Span(
            Position(1, 1, 0), Position(2, 3, 5), "f.fg"
        )
        assert lazy != src.span(3, 4)
        assert lazy != Span(eager.start, eager.end, "g.fg")

class TestErrorPositions:
    def test_type_error_carries_position(self):
        err = error_for("let x = 1 in\niadd(x, true)")
        assert err.span is not None
        assert err.span.start.line == 2

    def test_unbound_variable_points_at_use(self):
        err = error_for("let x = 1 in\n  missing_thing")
        assert err.span.start.line == 2

    def test_model_error_points_at_model(self):
        err = error_for(
            "concept C<t> { op : t; } in\n\nmodel C<int> { } in 0"
        )
        assert err.span.start.line == 3

    def test_str_includes_kind(self):
        err = error_for("nope")
        assert "type error" in str(err)

    def test_parse_error_excerpt(self):
        with pytest.raises(ParseError) as excinfo:
            parse_fg("let x =\n  in x")
        rendered = str(excinfo.value)
        assert "in x" in rendered  # the excerpt line
        assert "^" in rendered


class TestMessageQuality:
    def test_missing_model_names_concept_and_args(self):
        err = error_for(
            "concept Ord<t> { lt : fn(t, t) -> bool; } in Ord<int>.lt"
        )
        assert "Ord<int>" in err.message

    def test_model_member_mismatch_names_both_types(self):
        err = error_for(
            "concept C<t> { op : fn(t, t) -> t; } in"
            " model C<int> { op = ilt; } in 0"
        )
        assert "fn(int, int) -> bool" in err.message
        assert "fn(int, int) -> int" in err.message

    def test_same_type_violation_shows_representatives(self):
        src = r"""
        concept It<I> { types elt; curr : fn(I) -> elt; } in
        model It<list int> { types elt = int; curr = \l : list int. car[int](l); } in
        model It<list bool> { types elt = bool; curr = \l : list bool. car[bool](l); } in
        let f = /\a, b where It<a>, It<b>; It<a>.elt == It<b>.elt. 0 in
        f[list int, list bool]
        """
        err = error_for(src)
        assert "left is int" in err.message
        assert "right is bool" in err.message

    def test_diagnostic_is_exception(self):
        assert issubclass(TypeError_, Diagnostic)
        assert issubclass(Diagnostic, Exception)


class TestExcerptEdgeCases:
    def test_end_of_file_span(self):
        src = SourceText("let x = 1")
        span = src.span(9, 9)  # one past the last character
        excerpt = src.excerpt(span)
        assert "let x = 1" in excerpt
        assert "^" in excerpt

    def test_span_past_end_is_clamped(self):
        src = SourceText("ab")
        span = src.span(50, 60)
        assert span.end.offset == 2
        assert src.excerpt(span)  # no IndexError, still renders

    def test_multi_line_span_underlines_first_line(self):
        src = SourceText("let x =\n  oops\nin x")
        span = src.span(4, 14)  # from 'x' through 'oops'
        excerpt = src.excerpt(span)
        lines = excerpt.splitlines()
        assert "let x =" in lines[0]
        assert "oops" not in lines[0].replace("let x =", "")
        # Underline runs from the caret to the end of the first line.
        assert lines[1].count("^") >= 1

    def test_tabs_before_caret_stay_aligned(self):
        src = SourceText("\t\tbad")
        span = src.span(2, 5)  # the word 'bad'
        excerpt = src.excerpt(span)
        display, underline = excerpt.splitlines()
        assert "\t" not in display  # tabs expanded for display
        assert underline.index("^") == display.index("bad")
        assert underline.count("^") == 3

    def test_empty_source(self):
        src = SourceText("")
        assert src.excerpt(src.span(0, 0)) == ""
        assert src.line(1) == ""
        assert src.position_at(0) == Position(1, 1, 0)

    def test_synthetic_span_renders_empty(self):
        from repro.diagnostics.source import SYNTHETIC

        src = SourceText("anything")
        assert src.excerpt(SYNTHETIC) == ""
        assert SYNTHETIC.filename == "<synthetic>"

    def test_excerpt_caret_width_single_line(self):
        src = SourceText("iadd(1, true)")
        span = src.span(8, 12)
        excerpt = src.excerpt(span)
        assert excerpt.count("^") == 4
