"""Lexer shared by the F_G and System F concrete-syntax parsers.

The paper gives only abstract syntax; this concrete syntax is our engineering
addition, designed to read like the paper's listings:

.. code-block:: text

    concept Monoid<t> { refines Semigroup<t>; identity_elt : t; } in
    let accumulate = /\\t where Monoid<t>. ... in
    model Monoid<int> { identity_elt = 0; } in
    accumulate[int](ls)

Comments are ``//`` to end of line and ``/* ... */`` (non-nesting).  Note the
lexer must disambiguate ``/*``, ``//``, and the type-abstraction lambda
``/\\``.

One compiled pattern (``_TOKEN``) finds every token, comment and run of
whitespace in a single scan.  A token records only the two offsets of its
text; its span resolves them to line and column the first time a reader
asks, which in practice means only when a diagnostic is rendered.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Optional, Set

from repro.diagnostics.errors import LexError
from repro.diagnostics.source import SourceText, Span

#: Token kinds that stand for themselves.
SYMBOLS = [
    # Longest match first.
    "/\\",
    "->",
    "==",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
    "<",
    ">",
    ",",
    ";",
    ":",
    ".",
    "=",
    "*",
    "\\",
]

#: Keywords of the F_G concrete syntax (a superset of System F's).
KEYWORDS: Set[str] = {
    "concept",
    "model",
    "refines",
    "types",
    "require",
    "where",
    "in",
    "let",
    "fn",
    "forall",
    "list",
    "if",
    "then",
    "else",
    "fix",
    "type",
    "nth",
    "use",
    "overload",
    "true",
    "false",
    "int",
    "bool",
    "unit",
}


class Token(NamedTuple):
    """A lexical token: ``kind`` is a symbol, keyword, 'IDENT', 'NUMBER', or 'EOF'."""

    kind: str
    text: str
    span: Span

    def __str__(self) -> str:
        return f"{self.kind}({self.text!r})"


#: One alternative per token class, tried in order at each offset.  Skipped
#: text (whitespace, ``//`` and closed ``/* */`` comments) has no group;
#: ``open`` is an unterminated block comment, which runs to the end of
#: input.  ``NUMBER`` takes decimal digits only (``\d``, what :func:`int`
#: accepts), so a superscript ``²`` is an unexpected character.  An
#: identifier that starts with an ASCII letter or ``_`` is matched here;
#: any other character falls to ``other``, where :func:`tokenize` applies
#: ``str.isalpha`` to decide whether it starts an identifier.
_TOKEN = re.compile(
    r"[ \t\r\n]+|//[^\n]*|/\*.*?\*/"
    r"|(?P<open>/\*.*)"
    r"|(?P<NUMBER>-?\d+)"
    r"|(?P<IDENT>[A-Za-z_][\w']*)"
    rf"|(?P<symbol>{'|'.join(map(re.escape, SYMBOLS))})"
    r"|(?P<other>.)",
    re.DOTALL,
)

#: The rest of an identifier: ``str.isalnum`` characters (``\w``), ``_``
#: and ``'``.
_IDENT_REST = re.compile(r"[\w']*")


def tokenize(source: SourceText, reporter=None) -> List[Token]:
    """Tokenize ``source``; raises :class:`LexError` on malformed input.

    Each token's span holds offsets only; its line and column are computed
    when first read (see :class:`repro.diagnostics.source.Span`).

    With a :class:`repro.diagnostics.DiagnosticReporter`, lex errors are
    recorded and the offending characters skipped, so one bad byte does not
    hide every token after it (error *recovery* mode).
    """
    text = source.text
    span = source.span
    keywords = KEYWORDS
    tokens: List[Token] = []
    append = tokens.append
    pos = 0
    while True:
        # Restarted only after an identifier that begins with a non-ASCII
        # letter, whose tail the master pattern has not consumed.
        for m in _TOKEN.finditer(text, pos):
            kind = m.lastgroup
            if kind is None:
                continue
            word = m.group()
            start, end = m.span()
            if kind == "IDENT":
                if word in keywords:
                    kind = word
            elif kind == "symbol":
                kind = word
            elif kind == "other":
                if word.isalpha():
                    pos = _IDENT_REST.match(text, end).end()
                    word = text[start:pos]
                    append(Token(
                        word if word in keywords else "IDENT", word,
                        span(start, pos),
                    ))
                    break
                _lex_error(
                    f"unexpected character {word!r}", span(start, end),
                    source, reporter,
                )
                continue
            elif kind == "open":
                _lex_error(
                    "unterminated block comment", span(start, start + 2),
                    source, reporter,
                )
                continue
            append(Token(kind, word, span(start, end)))
        else:
            break
    n = len(text)
    append(Token("EOF", "", span(n, n)))
    return tokens


def _lex_error(message: str, where: Span, source: SourceText,
               reporter) -> None:
    err = LexError(message, where).attach_source(source)
    if reporter is None:
        raise err
    reporter.error(err)


class TokenStream:
    """A cursor over a token list with one-token lookahead helpers."""

    def __init__(self, tokens: List[Token], source: SourceText):
        self._tokens = tokens
        self._last = len(tokens) - 1
        self._pos = 0
        self.source = source

    def peek(self, offset: int = 0) -> Token:
        index = self._pos + offset
        return self._tokens[index if index < self._last else self._last]

    def at(self, *kinds: str) -> bool:
        return self.peek().kind in kinds

    def advance(self) -> Token:
        token = self.peek()
        if token.kind != "EOF":
            self._pos += 1
        return token

    def match(self, kind: str) -> Optional[Token]:
        if self.at(kind):
            return self.advance()
        return None

    def expect(self, kind: str, context: str = "") -> Token:
        from repro.diagnostics.errors import ParseError

        token = self.peek()
        if token.kind != kind:
            where = f" in {context}" if context else ""
            raise ParseError(
                f"expected {kind!r}{where}, found {token.kind!r}"
                + (f" ({token.text!r})" if token.text else ""),
                token.span,
            ).attach_source(self.source)
        return self.advance()

    def error(self, message: str):
        from repro.diagnostics.errors import ParseError

        raise ParseError(message, self.peek().span).attach_source(self.source)


def stream(text: str, filename: str = "<input>", reporter=None) -> TokenStream:
    """Tokenize ``text`` into a :class:`TokenStream`.

    ``reporter`` enables lexer error recovery (see :func:`tokenize`).
    """
    source = SourceText(text, filename)
    return TokenStream(tokenize(source, reporter), source)
