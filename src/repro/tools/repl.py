r"""An interactive REPL for F_G.

F_G is expression-oriented — concepts, models, and lets scope over a body —
so the REPL accumulates declarations as an ever-growing prefix and evaluates
each expression against it:

.. code-block:: text

    fg> concept Magma<t> { op : fn(t, t) -> t; }
    fg> model Magma<int> { op = iadd; }
    fg> let twice = /\t where Magma<t>. \x : t. Magma<t>.op(x, x)
    fg> twice[int](21)
    42 : int

Commands: ``:type e``, ``:translate e``, ``:errors e``, ``:explain e``,
``:profile e``, ``:decls``, ``:clear``, ``:prelude``, ``:ext``,
``:fuel N``, ``:maxerrors N``, ``:stats``, ``:trace on|off``, ``:quit``.
Incomplete input (unexpected end of file) continues on the next line.

Observability: the session carries one
:class:`~repro.observability.MetricsRegistry` that every check and
evaluation writes into — ``:stats`` shows the running totals.  ``:trace
on`` appends a span tree to each evaluation's output; ``:explain e`` runs
the model-resolution explain log over an expression; ``:profile e`` runs
``e`` through the full pipeline under the deterministic profiler and
prints the hot-path table plus per-stage peak memory (see
docs/OBSERVABILITY.md).

The core logic lives in :class:`Repl`, which is side-effect free and
drivable from tests; :func:`main` wraps it in a stdin loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.diagnostics.errors import Diagnostic, ParseError
from repro.fg import pretty_type
from repro.observability import Instrumentation, MetricsRegistry
from repro.syntax import parse_fg
from repro.systemf import evaluate as f_evaluate
from repro.systemf import pretty_term as f_pretty_term

#: Keywords that begin a declaration the REPL should accumulate.
_DECL_KEYWORDS = ("concept", "model", "let", "type", "use", "overload")


def _render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return "[" + ", ".join(_render(v) for v in value) + "]"
    if isinstance(value, tuple):
        return "(" + ", ".join(_render(v) for v in value) + ")"
    return str(value)


@dataclass
class Repl:
    """REPL state: accumulated declarations plus mode flags."""

    use_ext: bool = False
    #: ``:prelude`` puts the declarations in the prelude's scope.
    prelude: bool = False
    decls: List[str] = field(default_factory=list)
    fuel: Optional[int] = None
    max_errors: int = 20
    trace_on: bool = False
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    _pending: str = ""

    # -- plumbing ---------------------------------------------------------

    def _checker_module(self):
        if self.use_ext:
            from repro import extensions

            return extensions
        import repro.fg as core

        return core

    def _program(self, expr: str) -> str:
        return "\n".join(self.decls + [expr])

    def _typecheck(self, text: str, instrumentation):
        """Type and whole-program translation of ``text`` (under the
        checked prelude once ``:prelude`` ran)."""
        prefix = None
        if self.prelude:
            from repro.prelude.checked import checked_prelude

            prefix = checked_prelude(self.use_ext)
        return self._checker_module().typecheck(
            parse_fg(text, "<repl>"), prefix=prefix,
            instrumentation=instrumentation,
        )

    def _check(self, expr: str, tracer=None):
        inst = Instrumentation(metrics=self.metrics) if tracer is None else \
            Instrumentation(tracer=tracer, metrics=self.metrics)
        return self._typecheck(self._program(expr), inst)

    # -- the interface ---------------------------------------------------------

    @property
    def pending(self) -> bool:
        """True when the REPL is waiting for a continuation line."""
        return bool(self._pending)

    def interrupt(self) -> None:
        """Discard any pending continuation input (Ctrl-C)."""
        self._pending = ""

    def feed(self, line: str) -> Optional[str]:
        """Process one input line; returns the text to display (or None).

        Raises ``SystemExit`` on ``:quit``.
        """
        text = (self._pending + "\n" + line) if self._pending else line
        self._pending = ""
        stripped = text.strip()
        if not stripped:
            return None
        if stripped.startswith(":"):
            return self._command(stripped)
        if self._brackets_open(stripped):
            self._pending = text
            return None
        try:
            return self._evaluate_or_declare(stripped)
        except ParseError as err:
            if self._looks_incomplete(err):
                self._pending = text
                return None
            return str(err)
        except Diagnostic as err:
            return str(err)
        except SystemExit:
            raise
        except Exception:
            # A non-Diagnostic exception is a bug in the implementation;
            # report it without killing the session.
            import traceback

            return (
                "-- internal error (a bug in the F_G implementation, not "
                "your program):\n" + traceback.format_exc().rstrip()
            )

    @staticmethod
    def _looks_incomplete(err: ParseError) -> bool:
        # Only input that *ran out* is a continuation — "expected 'EOF',
        # found X" means the program is complete but wrong.
        return "found 'EOF'" in err.message

    @staticmethod
    def _brackets_open(text: str) -> bool:
        """True when {, (, or [ are unbalanced (input clearly continues)."""
        from repro.diagnostics.source import SourceText
        from repro.syntax.lexer import tokenize

        try:
            tokens = tokenize(SourceText(text))
        except Diagnostic:
            return False  # let the parser report it
        depth = 0
        for token in tokens:
            if token.kind in ("{", "(", "["):
                depth += 1
            elif token.kind in ("}", ")", "]"):
                depth -= 1
        return depth > 0

    def _complete_expression(self, text: str) -> bool:
        """True when ``text`` already parses as a whole program on its own.

        ``let x = 1 in iadd(x, 1)`` is a complete expression to evaluate;
        a bare ``let x = 1`` is a declaration prefix to accumulate.
        """
        try:
            parse_fg(self._program(text), "<repl>")
        except Diagnostic:
            return False
        return True

    def _evaluate_or_declare(self, text: str) -> str:
        first_word = text.split(None, 1)[0] if text.split() else ""
        first_word = first_word.split("(")[0]
        if first_word in _DECL_KEYWORDS and not self._complete_expression(text):
            import re

            ends_with_in = re.search(r"\bin\s*$", text) is not None
            candidate = text if ends_with_in else text + " in"
            # Validate by checking a trivial body under the new prefix.
            probe = "\n".join(self.decls + [candidate, "0"])
            self._typecheck(probe, Instrumentation(metrics=self.metrics))
            self.decls.append(candidate)
            return f"-- declared ({first_word})"
        tracer = None
        if self.trace_on:
            from repro.observability import Tracer

            tracer = Tracer()
        fg_type, sf = self._check(text, tracer=tracer)
        from repro.diagnostics.limits import Budget, Limits

        budget = Budget(Limits(max_eval_steps=self.fuel))
        value = f_evaluate(sf, budget=budget)
        self.metrics.inc("eval.steps", budget.steps_taken)
        out = f"{_render(value)} : {pretty_type(fg_type)}"
        if tracer is not None:
            from repro.observability.exporters import render_tree

            out += "\n-- trace:\n" + render_tree(tracer)
        return out

    def _command(self, text: str) -> str:
        parts = text.split(None, 1)
        command = parts[0]
        arg = parts[1] if len(parts) > 1 else ""
        if command in (":q", ":quit"):
            raise SystemExit(0)
        if command == ":type":
            if not arg:
                return "usage: :type <expr>"
            fg_type, _ = self._check(arg)
            return pretty_type(fg_type)
        if command == ":translate":
            if not arg:
                return "usage: :translate <expr>"
            _, sf = self._check(arg)
            return f_pretty_term(sf)
        if command == ":errors":
            if not arg:
                return "usage: :errors <expr>"
            from repro.pipeline import check_source

            outcome = check_source(
                self._program(arg), "<repl>", prelude=self.prelude,
                ext=self.use_ext, max_errors=self.max_errors,
            )
            if outcome.ok:
                return "-- no errors"
            return outcome.report.render()
        if command == ":explain":
            if not arg:
                return "usage: :explain <expr>"
            from repro.observability import ExplainLog
            from repro.pipeline import check_source

            log = ExplainLog()
            outcome = check_source(
                self._program(arg), "<repl>", prelude=self.prelude,
                ext=self.use_ext, max_errors=self.max_errors,
                instrumentation=Instrumentation(
                    metrics=self.metrics, explain=log
                ),
            )
            parts = []
            if not outcome.ok:
                parts.append(outcome.report.render())
            parts.append("-- model resolution log:")
            parts.append(log.render())
            return "\n".join(parts)
        if command == ":profile":
            if not arg:
                return "usage: :profile <expr>"
            from repro.observability import (
                MemoryAccountant, Tracer, format_profile, profile_tracer,
            )
            from repro.pipeline import check_source

            tracer, memory = Tracer(), MemoryAccountant()
            outcome = check_source(
                self._program(arg), "<repl>", prelude=self.prelude,
                ext=self.use_ext, max_errors=self.max_errors, evaluate=True,
                instrumentation=Instrumentation(
                    tracer=tracer, metrics=self.metrics, memory=memory,
                ),
            )
            parts = []
            if not outcome.ok:
                parts.append(outcome.report.render())
            parts.append(format_profile(profile_tracer(tracer), memory))
            return "\n".join(parts)
        if command == ":stats":
            return self.metrics.render()
        if command == ":trace":
            if arg == "on":
                self.trace_on = True
                return "-- trace on (span tree after each evaluation)"
            if arg == "off":
                self.trace_on = False
                return "-- trace off"
            state = "on" if self.trace_on else "off"
            return f"-- trace: {state} (set with :trace on|off)"
        if command == ":fuel":
            if not arg:
                current = "unbounded" if self.fuel is None else str(self.fuel)
                return f"-- fuel: {current} (set with :fuel N, clear with :fuel off)"
            if arg in ("off", "none"):
                self.fuel = None
                return "-- fuel: unbounded"
            try:
                self.fuel = max(1, int(arg))
            except ValueError:
                return "usage: :fuel N (or :fuel off)"
            return f"-- fuel: {self.fuel}"
        if command == ":maxerrors":
            if not arg:
                return f"-- max errors: {self.max_errors}"
            try:
                self.max_errors = max(1, int(arg))
            except ValueError:
                return "usage: :maxerrors N"
            return f"-- max errors: {self.max_errors}"
        if command == ":decls":
            shown = (["-- prelude loaded"] if self.prelude else []) + self.decls
            if not shown:
                return "-- no declarations"
            return "\n".join(shown)
        if command == ":clear":
            self.decls = []
            self.prelude = False
            return "-- cleared"
        if command == ":prelude":
            self.prelude = True
            return "-- prelude loaded"
        if command == ":ext":
            self.use_ext = not self.use_ext
            state = "on" if self.use_ext else "off"
            return f"-- extensions {state}"
        if command == ":help":
            return (
                "declarations (concept/model/let/type/use/overload) "
                "accumulate; expressions evaluate.\n"
                "commands: :type e, :translate e, :errors e, :explain e, "
                ":profile e, :decls, :clear, :prelude, :ext, :fuel N, "
                ":maxerrors N, :stats, :trace on|off, :quit"
            )
        return f"unknown command {command} (try :help)"


def main() -> int:
    repl = Repl()
    print("F_G repl — Siek & Lumsdaine, PLDI 2005 (:help for help)")
    while True:
        prompt = "... " if repl.pending else "fg> "
        try:
            line = input(prompt)
        except EOFError:
            print()
            return 0
        except KeyboardInterrupt:
            repl.interrupt()
            print()
            continue
        try:
            output = repl.feed(line)
        except SystemExit:
            return 0
        if output is not None:
            print(output)


if __name__ == "__main__":
    raise SystemExit(main())
