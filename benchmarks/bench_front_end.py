"""Front end: the lexer alone, over the two inputs the pipeline lexes most.

The wrapped prelude (1,390 tokens) is what a textual ``--prelude`` check
lexes; the 150-line program is the size ``perfbench``'s ``nopre-large``
workload starts from.  Spans carry offsets only, so these rows time the
tokens, not line/column bookkeeping.
"""

from repro.diagnostics.source import SourceText
from repro.prelude import wrap
from repro.syntax.lexer import tokenize


def program_150_lines() -> str:
    """A 150-line, self-contained F_G program with comments."""
    lines = [
        "concept Semigroup<t> { binary_op : fn(t, t) -> t; } in",
        "concept Monoid<t> { refines Semigroup<t>; identity_elt : t; } in",
        "model Semigroup<int> { binary_op = iadd; } in",
        "model Monoid<int> { identity_elt = 0; } in",
    ]
    for i in range(145):
        lines.append(
            f"let f{i} = \\x : int. Monoid<int>.binary_op("
            f"imult(x, {i}), isub(x, -{i})) in  // step {i}"
        )
    lines.append("f144(Monoid<int>.identity_elt)")
    return "\n".join(lines)


class TestTokenize:
    def test_tokenize_wrapped_prelude(self, benchmark):
        source = SourceText(wrap("accumulate[int](range(1, 11))"))
        tokens = benchmark(lambda: tokenize(source))
        assert len(tokens) == 1390

    def test_tokenize_150_line_program(self, benchmark):
        text = program_150_lines()
        assert text.count("\n") == 149
        source = SourceText(text)
        tokens = benchmark(lambda: tokenize(source))
        assert tokens[-1].kind == "EOF"
