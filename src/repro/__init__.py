"""Reproduction of *Essential Language Support for Generic Programming*
(Siek & Lumsdaine, PLDI 2005).

This library implements System F_G — System F extended with concepts,
models, where clauses, associated types, and same-type constraints — with a
type-preserving dictionary-passing translation to System F, plus the four
comparison mini-languages of the paper's Figure 1.

Quick start::

    from repro import fg_run, fg_check

    program = '''
    concept Magma<t> { op : fn(t, t) -> t; } in
    let twice = /\\\\t where Magma<t>. \\\\x : t. Magma<t>.op(x, x) in
    model Magma<int> { op = iadd; } in
    twice[int](21)
    '''
    fg_run(program)      # => 42
    fg_check(program)    # => the F_G type, 'int'

Subpackages:

- :mod:`repro.fg` — the F_G language (the paper's contribution),
- :mod:`repro.systemf` — the System F substrate and translation target,
- :mod:`repro.syntax` — concrete syntax for both languages,
- :mod:`repro.prelude` — a standard concept library,
- :mod:`repro.approaches` — Figure 1's four pre-existing approaches,
- :mod:`repro.extensions` — the section 6 extensions (named and
  parameterized models, member defaults, nested requirements).
"""

from repro.fg import (
    evaluate as _fg_evaluate,
    typecheck as _fg_typecheck,
    verify_translation as _fg_verify,
)
from repro.fg.pretty import pretty_term as fg_pretty_term
from repro.fg.pretty import pretty_type as fg_pretty_type
from repro.syntax import parse_f, parse_fg
from repro.systemf import evaluate as f_evaluate
from repro.systemf import pretty_term as f_pretty_term
from repro.systemf import pretty_type as f_pretty_type
from repro.systemf import type_of as f_type_of

__version__ = "1.0.0"


def fg_check(program: str, use_prelude: bool = False):
    """Typecheck an F_G source program; returns its F_G type."""
    return _fg_typecheck(parse_fg(program), prefix=_prelude(use_prelude))[0]


def fg_translate(program: str, use_prelude: bool = False):
    """Translate an F_G source program to a System F term."""
    return _fg_typecheck(parse_fg(program), prefix=_prelude(use_prelude))[1]


def fg_run(program: str, use_prelude: bool = False):
    """Typecheck, translate, and evaluate an F_G source program."""
    return _fg_evaluate(parse_fg(program), prefix=_prelude(use_prelude))


def fg_verify(program: str, use_prelude: bool = False):
    """Run the executable Theorem 1/2 check on an F_G source program."""
    return _fg_verify(parse_fg(program), prefix=_prelude(use_prelude))


def fg_check_all(program: str, use_prelude: bool = False, **options):
    """Fault-tolerant check of F_G source; returns a :class:`CheckOutcome`.

    Unlike :func:`fg_check` this never raises a diagnostic: syntax and type
    errors are collected in ``outcome.report`` (parser resynchronization,
    typechecker recovery).  Keyword options are those of
    :func:`repro.pipeline.check_source`.
    """
    from repro.pipeline import check_source

    return check_source(program, prelude=use_prelude, **options)


def _prelude(use_prelude: bool):
    """The checked prelude (:mod:`repro.prelude.checked`), when asked for."""
    if not use_prelude:
        return None
    from repro.prelude.checked import checked_prelude

    return checked_prelude()


__all__ = [
    "__version__",
    "f_evaluate",
    "f_pretty_term",
    "f_pretty_type",
    "f_type_of",
    "fg_check",
    "fg_check_all",
    "fg_pretty_term",
    "fg_pretty_type",
    "fg_run",
    "fg_translate",
    "fg_verify",
    "parse_f",
    "parse_fg",
]
