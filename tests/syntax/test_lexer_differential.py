"""Differential test: the master-regex lexer against the loop it replaced.

``_oracle_tokenize`` is the character-by-character lexer the package used
before its single compiled pattern, kept here (and only here) as the
reference.  It computes every position eagerly; the lexer under test
computes them lazily from offsets.  Both must produce the same tokens
(kind, text, start and end line/column/offset) and the same lex errors.

The one intended divergence is which characters count as digits: the loop
used ``str.isdigit``, so a superscript ``²`` started a ``NUMBER`` token that
``int`` then rejected; the lexer under test takes decimal digits only (what
``int`` accepts) and reports ``²`` as an unexpected character.  The oracle
takes the digit predicate as a parameter, so every input is compared
exactly: against today's rule when it holds no non-decimal digit, and
against the decimal-only rule always.
"""

from __future__ import annotations

from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.diagnostics.errors import LexError
from repro.diagnostics.source import SourceText, Span
from repro.prelude import PRELUDE, wrap
from repro.syntax.lexer import KEYWORDS, SYMBOLS, tokenize
from repro.testing import fuzz_mutants

EXAMPLES = sorted(
    (Path(__file__).resolve().parents[2] / "examples" / "fg").glob("*.fg")
)


def _oracle_tokenize(source, reporter=None, isdigit=str.isdigit):
    """The pre-regex lexer: ``(kind, text, start, end)`` with positions."""
    text = source.text
    n = len(text)
    pos = 0
    tokens = []

    def emit(kind, word, start, end):
        tokens.append((kind, word, source.position_at(start),
                       source.position_at(end)))

    def fail(message, start, end):
        err = LexError(message, Span(
            source.position_at(start), source.position_at(end),
            source.filename,
        )).attach_source(source)
        if reporter is None:
            raise err
        reporter.error(err)

    while pos < n:
        ch = text[pos]
        if ch in " \t\r\n":
            pos += 1
            continue
        if text.startswith("//", pos):
            end = text.find("\n", pos)
            pos = n if end == -1 else end + 1
            continue
        if text.startswith("/*", pos):
            end = text.find("*/", pos + 2)
            if end == -1:
                fail("unterminated block comment", pos, pos + 2)
                pos = n
                continue
            pos = end + 2
            continue
        if isdigit(ch) or (
            ch == "-" and pos + 1 < n and isdigit(text[pos + 1])
        ):
            start = pos
            pos += 1
            while pos < n and isdigit(text[pos]):
                pos += 1
            emit("NUMBER", text[start:pos], start, pos)
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            while pos < n and (text[pos].isalnum() or text[pos] in "_'"):
                pos += 1
            word = text[start:pos]
            emit(word if word in KEYWORDS else "IDENT", word, start, pos)
            continue
        for sym in SYMBOLS:
            if text.startswith(sym, pos):
                emit(sym, sym, pos, pos + len(sym))
                pos += len(sym)
                break
        else:
            fail(f"unexpected character {ch!r}", pos, pos + 1)
            pos += 1
    emit("EOF", "", n, n)
    return tokens


class _Collect(list):
    """A minimal reporter: lex errors in the order they were reported."""

    def error(self, err):
        self.append(err)


def _errors(collected):
    return [(e.message, e.span.start, e.span.end, str(e)) for e in collected]


def _actual(text):
    source = SourceText(text)
    errors = _Collect()
    tokens = [
        (t.kind, t.text, t.span.start, t.span.end)
        for t in tokenize(source, errors)
    ]
    return tokens, _errors(errors)


def _expected(text, isdigit=str.isdigit):
    source = SourceText(text)
    errors = _Collect()
    tokens = _oracle_tokenize(source, errors, isdigit)
    return tokens, _errors(errors)


def _first_error(lex, text):
    try:
        lex(SourceText(text))
    except LexError as err:
        return (err.message, err.span.start, err.span.end, str(err))
    return None


def _has_non_decimal_digit(text):
    return any(ch.isdigit() and not ch.isdecimal() for ch in text)


def assert_same(text):
    """Exact agreement, recovery and fail-fast modes, under both rules."""
    actual = _actual(text)
    assert actual == _expected(text, str.isdecimal)
    if not _has_non_decimal_digit(text):
        assert actual == _expected(text)
    assert _first_error(tokenize, text) == _first_error(
        lambda s: _oracle_tokenize(s, None, str.isdecimal), text
    )


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_examples_agree(path):
    assert_same(path.read_text())


def test_prelude_agrees():
    assert_same(PRELUDE)
    assert_same(wrap("accumulate[int](range(1, 11))"))


def test_fuzz_mutants_agree():
    for mutant in fuzz_mutants(300, seed=3):
        assert_same(mutant)


@pytest.mark.parametrize("text", [
    "1 /* never closed",
    "/*",
    "/*/",
    "a /* x */ b /* y",
    "1 // trailing",
    "//",
    "x//y\nz",
    "/\\t. t // done",
])
def test_comment_edges_agree(text):
    assert_same(text)


_PIECES = list("ab_'09 \n\t\r\f/\\*-<>=(){}[],;:.@#") + [
    "é", "½", "٣", "²", "let", "in", "//", "/*", "*/", "->", "/\\",
]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=40).map("".join))
def test_generated_text_agrees(text):
    assert_same(text)


def test_non_decimal_digit_is_the_only_divergence():
    # Today's loop lexed ``1²`` as one NUMBER that ``int`` rejects; the
    # regex lexer stops the number at ``1`` and reports ``²``.
    text = "let x = 1² in x"
    old_tokens, old_errors = _expected(text)
    assert ("NUMBER", "1²") in [t[:2] for t in old_tokens]
    assert old_errors == []
    tokens, errors = _actual(text)
    assert ("NUMBER", "1") in [t[:2] for t in tokens]
    assert [error[0] for error in errors] == [
        "unexpected character '²'"
    ]
    assert (tokens, errors) == _expected(text, str.isdecimal)
    # Inside an identifier ``²`` is still an identifier character.
    assert _actual("x² ٣")[0] == _expected("x² ٣")[0]
