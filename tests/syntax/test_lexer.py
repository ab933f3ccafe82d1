"""Unit tests for the shared lexer."""

import pytest

from repro.diagnostics.errors import LexError
from repro.diagnostics.source import SourceText
from repro.syntax.lexer import tokenize


def kinds(text: str):
    return [t.kind for t in tokenize(SourceText(text))]


def texts(text: str):
    return [t.text for t in tokenize(SourceText(text)) if t.kind != "EOF"]


class TestTokens:
    def test_empty_input(self):
        assert kinds("") == ["EOF"]

    def test_identifiers_and_keywords(self):
        assert kinds("foo concept bar model") == [
            "IDENT", "concept", "IDENT", "model", "EOF",
        ]

    def test_primed_identifiers(self):
        assert texts("x' foo_bar Baz9") == ["x'", "foo_bar", "Baz9"]

    def test_numbers(self):
        assert texts("0 42 -7") == ["0", "42", "-7"]

    def test_numbers_take_decimal_digits(self):
        # Any Unicode decimal digit is a digit (``int`` accepts it) ...
        assert texts("\u0663\u0664 -\u0663") == ["\u0663\u0664", "-\u0663"]
        assert int(texts("\u0663")[0]) == 3

    def test_superscript_digit_is_not_a_number(self):
        # ... but ``²`` (``str.isdigit``, not decimal) is not: it used to
        # start a NUMBER token that crashed the parser's ``int``.
        with pytest.raises(LexError) as excinfo:
            tokenize(SourceText("let x = 1\u00b2 in x"))
        assert excinfo.value.message == "unexpected character '\u00b2'"
        assert excinfo.value.span.start.column == 10
        with pytest.raises(LexError):
            tokenize(SourceText("-\u00b2"))

    def test_superscript_digit_inside_identifier(self):
        assert texts("x\u00b2 y\u00bd") == ["x\u00b2", "y\u00bd"]

    def test_non_ascii_identifiers(self):
        assert kinds("\u00e9t\u00e9 _x \u00c9") == [
            "IDENT", "IDENT", "IDENT", "EOF",
        ]
        assert texts("caf\u00e9'") == ["caf\u00e9'"]

    def test_negative_vs_arrow(self):
        assert kinds("-> -1") == ["->", "NUMBER", "EOF"]

    def test_symbols_longest_match(self):
        assert kinds("== = -> /\\ \\ .") == [
            "==", "=", "->", "/\\", "\\", ".", "EOF",
        ]

    def test_angle_brackets_single(self):
        # Nested generics close with two separate '>' tokens.
        assert kinds("A<B<t>>") == [
            "IDENT", "<", "IDENT", "<", "IDENT", ">", ">", "EOF",
        ]

    def test_all_keywords_recognized(self):
        for kw in ["concept", "model", "refines", "types", "require",
                   "where", "in", "let", "fn", "forall", "list", "if",
                   "then", "else", "fix", "type", "nth", "use", "true",
                   "false", "int", "bool", "unit"]:
            assert kinds(kw) == [kw, "EOF"]


class TestComments:
    def test_line_comment(self):
        assert kinds("1 // comment here\n2") == ["NUMBER", "NUMBER", "EOF"]

    def test_block_comment(self):
        assert kinds("1 /* anything \n at all */ 2") == [
            "NUMBER", "NUMBER", "EOF",
        ]

    def test_block_comment_vs_tylam(self):
        assert kinds("/\\t. t") == ["/\\", "IDENT", ".", "IDENT", "EOF"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize(SourceText("1 /* never closed"))

    def test_comment_at_end_without_newline(self):
        assert kinds("1 // trailing") == ["NUMBER", "EOF"]


class TestErrorsAndSpans:
    def test_unexpected_character(self):
        with pytest.raises(LexError) as excinfo:
            tokenize(SourceText("a @ b"))
        assert "@" in str(excinfo.value)

    def test_spans_track_lines(self):
        tokens = tokenize(SourceText("a\n  b"))
        assert tokens[0].span.start.line == 1
        assert tokens[1].span.start.line == 2
        assert tokens[1].span.start.column == 3

    def test_form_feed_is_not_whitespace(self):
        with pytest.raises(LexError):
            tokenize(SourceText("a\fb"))

    def test_spans_hold_offsets(self):
        tokens = tokenize(SourceText("ab\n  cd"))
        assert [(t.span.start.offset, t.span.end.offset) for t in tokens] == [
            (0, 2), (5, 7), (7, 7),
        ]
        assert str(tokens[1].span) == "<input>:2:3"

    def test_recovery_reports_every_bad_character(self):
        from repro.diagnostics import DiagnosticReporter

        reporter = DiagnosticReporter()
        tokens = tokenize(SourceText("a @ b # c /* open"), reporter)
        assert [t.text for t in tokens] == ["a", "b", "c", ""]
        messages = [d.message for d in reporter.finish()]
        assert messages == [
            "unexpected character '@'",
            "unexpected character '#'",
            "unterminated block comment",
        ]

    def test_span_excerpt_renders(self):
        source = SourceText("let x = oops in x")
        tokens = tokenize(source)
        oops = next(t for t in tokens if t.text == "oops")
        excerpt = source.excerpt(oops.span)
        assert "oops" in excerpt
        assert "^^^^" in excerpt
