"""Source text, positions, and spans.

The lexer produces tokens tagged with :class:`Span` values; parsers propagate
them onto AST nodes so that type errors can point back into the program text.
A span made by :meth:`SourceText.span` holds two offsets into its source;
line and column are computed the first time :attr:`Span.start` or
:attr:`Span.end` is read (in practice, when a diagnostic is rendered), so a
program that checks cleanly never builds a :class:`Position` or its
source's line index.
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass
from typing import List, Optional


@dataclass(frozen=True, order=True)
class Position:
    """A point in a source file: 1-based line, 1-based column, 0-based offset."""

    line: int
    column: int
    offset: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class Span:
    """A half-open region of source text, from ``start`` up to ``end``.

    ``Span(start, end, filename)`` takes two :class:`Position` values.  With
    a ``source``, ``start`` and ``end`` are offsets into it instead, and the
    :attr:`start`/:attr:`end` positions are computed on first read (this is
    how :meth:`SourceText.span` builds every token's span).  Either way a
    span compares, hashes and prints by ``(start, end, filename)``.
    """

    __slots__ = ("_start", "_end", "filename", "_source")

    def __init__(self, start, end, filename: str = "<input>",
                 source: Optional["SourceText"] = None):
        self._start = start
        self._end = end
        self.filename = filename
        self._source = source

    @property
    def start(self) -> Position:
        start = self._start
        if isinstance(start, int):
            start = self._start = self._source.position_at(start)
        return start

    @property
    def end(self) -> Position:
        end = self._end
        if isinstance(end, int):
            end = self._end = self._source.position_at(end)
        return end

    def _key(self):
        return (self.start, self.end, self.filename)

    def __eq__(self, other) -> bool:
        if other.__class__ is not Span:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"Span(start={self.start!r}, end={self.end!r}, "
                f"filename={self.filename!r})")

    def __str__(self) -> str:
        return f"{self.filename}:{self.start}"

    def merge(self, other: Optional["Span"]) -> "Span":
        """The smallest span covering both ``self`` and ``other``."""
        if other is None:
            return self
        start = min(self.start, other.start)
        end = max(self.end, other.end)
        return Span(start, end, self.filename)


#: Span used for synthesized nodes with no source location.
SYNTHETIC = Span(Position(0, 0, 0), Position(0, 0, 0), "<synthetic>")

_NEWLINE = re.compile("\n")


@dataclass
class SourceText:
    """Program text plus a line-start index, built on first position lookup."""

    text: str
    filename: str = "<input>"

    def __post_init__(self) -> None:
        if not isinstance(self.text, str):
            raise TypeError(
                f"source text must be str, not {type(self.text).__name__}"
            )
        self._line_starts: Optional[List[int]] = None

    def _line_index(self) -> List[int]:
        """Offsets at which each line begins (the first is always 0)."""
        if self._line_starts is None:
            self._line_starts = [0] + [
                m.end() for m in _NEWLINE.finditer(self.text)
            ]
        return self._line_starts

    def position_at(self, offset: int) -> Position:
        """The :class:`Position` of the character at byte ``offset``."""
        offset = max(0, min(offset, len(self.text)))
        starts = self._line_index()
        line_idx = bisect.bisect_right(starts, offset) - 1
        column = offset - starts[line_idx] + 1
        return Position(line_idx + 1, column, offset)

    def span(self, start_offset: int, end_offset: int) -> Span:
        """A :class:`Span` over two byte offsets; positions resolve lazily."""
        return Span(start_offset, end_offset, self.filename, self)

    def line(self, lineno: int) -> str:
        """The text of 1-based line ``lineno``, without its newline."""
        starts = self._line_index()
        if lineno < 1 or lineno > len(starts):
            return ""
        start = starts[lineno - 1]
        end = self.text.find("\n", start)
        if end == -1:
            end = len(self.text)
        return self.text[start:end]

    def excerpt(self, span: Span) -> str:
        """A caret-underlined excerpt of the line where ``span`` starts."""
        raw = self.line(span.start.line)
        if not raw:
            return ""
        start_col = min(span.start.column - 1, len(raw))
        # Expand tabs in both the displayed line and the caret padding so
        # the underline stays aligned however the line is indented.
        line_text = raw.expandtabs(4)
        caret_col = len(raw[:start_col].expandtabs(4))
        if span.end.line == span.start.line:
            end_col = min(span.end.column - 1, len(raw))
            width = max(1, len(raw[:end_col].expandtabs(4)) - caret_col)
        else:
            width = max(1, len(line_text) - caret_col)
        gutter = f"{span.start.line:>5} | "
        underline = " " * (len(gutter) + caret_col) + "^" * width
        return f"{gutter}{line_text}\n{underline}"

