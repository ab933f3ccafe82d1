"""The standard concept library, in scope of user programs.

Usage::

    from repro import prelude
    value = prelude.run("accumulate[int](range(1, 11))")   # => 55

:func:`typecheck`, :func:`type_of` and :func:`run` check the program
against the prelude checked once per process
(:mod:`repro.prelude.checked`).  :func:`wrap` and :func:`parse` build the
textual whole program — prelude source, then the program — for tools that
need one term, such as the direct F_G interpreter.
"""

from typing import Tuple

from repro.fg import ast as G
from repro.fg import typecheck as _typecheck
from repro.prelude.source import (
    PRELUDE,
    PRELUDE_ALGORITHMS,
    PRELUDE_CONCEPTS,
    PRELUDE_HELPERS,
    PRELUDE_MODELS,
)
from repro.syntax import parse_fg
from repro.systemf import ast as F
from repro.systemf import evaluate as _sf_evaluate


def wrap(program: str) -> str:
    """Prefix ``program`` with the full prelude."""
    return PRELUDE + "\n" + program


def parse(program: str, filename: str = "<input>") -> G.Term:
    """Parse ``program`` in the scope of the prelude."""
    return parse_fg(wrap(program), filename)


def typecheck(program: str) -> Tuple[G.FGType, F.Term]:
    """Typecheck ``program`` in the scope of the prelude; returns its type
    and the whole program's translation."""
    from repro.prelude.checked import checked_prelude

    return _typecheck(parse_fg(program), prefix=checked_prelude())


def type_of(program: str) -> G.FGType:
    """The F_G type of ``program`` under the prelude."""
    return typecheck(program)[0]


def run(program: str):
    """Typecheck, translate, and evaluate ``program`` under the prelude."""
    _, sf_term = typecheck(program)
    return _sf_evaluate(sf_term)


__all__ = [
    "PRELUDE",
    "PRELUDE_ALGORITHMS",
    "PRELUDE_CONCEPTS",
    "PRELUDE_HELPERS",
    "PRELUDE_MODELS",
    "parse",
    "run",
    "type_of",
    "typecheck",
    "wrap",
]
