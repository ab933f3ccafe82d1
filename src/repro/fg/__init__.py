"""System F_G: concepts, models, where clauses, associated types (the paper's
primary contribution).

Public surface:

- :mod:`repro.fg.ast` — types, terms, concept/model declarations,
- :func:`typecheck` — type-directed translation to System F,
- :func:`type_of`, :func:`translate` — the two projections of ``typecheck``,
- :func:`verify_translation` — executable Theorems 1 and 2,
- :func:`evaluate` — run a program (translate, then evaluate the System F
  image; the paper gives F_G its semantics exactly this way),
- :class:`Env` — the four-part environment Gamma (plus equalities),
- :class:`CongruenceSolver` — type equality with same-type constraints.
"""

from typing import Optional

from repro.fg import ast
from repro.fg.congruence import CongruenceSolver, solver_for_equalities
from repro.fg.env import Env, ModelInfo
from repro.fg.interp import interpret
from repro.fg.pretty import pretty_term, pretty_type
from repro.fg.typecheck import (
    Checker,
    translate,
    type_of,
    typecheck,
    typecheck_all,
    verify_translation,
)


def evaluate(term: ast.Term, env: Optional[Env] = None, *, limits=None,
             prefix=None):
    """Run an F_G program: translate to System F and evaluate the image.

    This *is* the paper's semantics for F_G — meaning is assigned by the
    translation (section 4).  With ``prefix`` (a checked declaration
    prefix such as the prelude) the whole program runs, ``term`` in its
    hole.
    """
    from repro.systemf import evaluate as sf_evaluate

    _, sf_term = typecheck(term, env, prefix=prefix, limits=limits)
    return sf_evaluate(sf_term, limits=limits)


__all__ = [
    "Checker",
    "CongruenceSolver",
    "Env",
    "ModelInfo",
    "ast",
    "evaluate",
    "interpret",
    "pretty_term",
    "pretty_type",
    "solver_for_equalities",
    "translate",
    "type_of",
    "typecheck",
    "typecheck_all",
    "verify_translation",
]
