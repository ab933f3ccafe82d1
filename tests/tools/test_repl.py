"""Tests for the F_G REPL state machine."""

import pytest

from repro.tools.repl import Repl


@pytest.fixture
def repl():
    return Repl()


class TestExpressions:
    def test_evaluate(self, repl):
        assert repl.feed("iadd(40, 2)") == "42 : int"

    def test_render_values(self, repl):
        assert repl.feed("(1, true)") == "(1, true) : (int * bool)"
        assert repl.feed("cons[int](1, nil[int])") == "[1] : list int"

    def test_empty_line(self, repl):
        assert repl.feed("") is None

    def test_type_error_reported_not_raised(self, repl):
        out = repl.feed("iadd(1, true)")
        assert "type error" in out

    def test_parse_error_reported(self, repl):
        out = repl.feed("iadd(1,,)")
        assert "parse error" in out


class TestDeclarations:
    def test_declare_and_use(self, repl):
        assert "declared" in repl.feed("concept Magma<t> { op : fn(t, t) -> t; }")
        assert "declared" in repl.feed("model Magma<int> { op = iadd; }")
        assert "declared" in repl.feed(
            r"let twice = /\t where Magma<t>. \x : t. Magma<t>.op(x, x)"
        )
        assert repl.feed("twice[int](21)") == "42 : int"

    def test_let_declaration(self, repl):
        repl.feed("let x = 10")
        assert repl.feed("iadd(x, 1)") == "11 : int"

    def test_bad_declaration_not_accumulated(self, repl):
        out = repl.feed("let x = iadd(1, true)")
        assert "type error" in out
        assert repl.decls == []

    def test_type_alias_declaration(self, repl):
        repl.feed("type pair = (int * int)")
        assert repl.feed(r"(\p : pair. (nth p 0))((7, 8))") == "7 : int"

    def test_decls_command(self, repl):
        repl.feed("let x = 1")
        out = repl.feed(":decls")
        assert "let x = 1" in out

    def test_clear(self, repl):
        repl.feed("let x = 1")
        repl.feed(":clear")
        assert "type error" in repl.feed("x")


class TestCommands:
    def test_type_command(self, repl):
        assert repl.feed(r":type \x : int. x") == "fn(int) -> int"

    def test_translate_command(self, repl):
        repl.feed("concept C<t> { op : fn(t, t) -> t; }")
        repl.feed("model C<int> { op = iadd; }")
        out = repl.feed(":translate C<int>.op(1, 2)")
        assert "nth" in out

    def test_prelude(self, repl):
        repl.feed(":prelude")
        assert repl.feed("accumulate[int](range(1, 4))") == "6 : int"

    def test_prelude_errors_use_the_session_lines(self, repl):
        repl.feed(":prelude")
        repl.feed(":prelude")  # idempotent: no duplicate concepts
        repl.feed("let one = 1")
        assert repl.feed(":errors iadd(one, true)").startswith(
            "<repl>:2:11: type error: argument 2"
        )
        assert repl.feed(":decls") == "-- prelude loaded\nlet one = 1 in"
        repl.feed(":clear")
        assert repl.feed(":decls") == "-- no declarations"

    def test_ext_toggle(self, repl):
        assert "extensions on" in repl.feed(":ext")
        repl.feed("concept Eq<t> { eq : fn(t, t) -> bool; "
                  r"neq : fn(t, t) -> bool = \x : t, y : t. "
                  "bnot(Eq<t>.eq(x, y)); }")
        repl.feed("model Eq<int> { eq = ieq; }")
        assert repl.feed("Eq<int>.neq(1, 1)") == "false : bool"

    def test_quit_raises_system_exit(self, repl):
        with pytest.raises(SystemExit):
            repl.feed(":quit")

    def test_unknown_command(self, repl):
        assert "unknown command" in repl.feed(":frobnicate")

    def test_help(self, repl):
        assert ":type" in repl.feed(":help")


class TestMultiline:
    def test_incomplete_input_continues(self, repl):
        assert repl.feed("iadd(1,") is None
        assert repl.pending
        assert repl.feed("2)") == "3 : int"
        assert not repl.pending

    def test_multiline_declaration(self, repl):
        assert repl.feed("concept C<t> {") is None
        assert repl.feed("  op : fn(t, t) -> t;") is None
        out = repl.feed("}")
        assert "declared" in out
