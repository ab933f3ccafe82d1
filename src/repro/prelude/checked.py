"""The prelude, checked once per process for each checker class.

Concepts and models are lexically scoped expressions, so the prelude is a
declaration prefix whose innermost body is the user's program.  Instead of
pasting its text in front of every program, :func:`checked_prelude` checks
it once — lazily, on first use, under a lock — into a
:class:`~repro.fg.typecheck.Prefix`: the environment at the hole, the
fresh-name counter and checker depth there, the enclosing concept/model
frames, and the prelude's System F translation with a hole.  Programs are
then checked on their own against that environment
(:meth:`~repro.fg.typecheck.Checker.check_program`), so their diagnostics
carry their own line numbers, and their translations are plugged into the
hole so verification and evaluation still see the whole program.

There is one prefix per checker class: :class:`~repro.fg.typecheck.Checker`
(``ext=False``) and :class:`~repro.extensions.ExtChecker` (``ext=True``).
Prefixes are immutable and shared by every thread.
"""

from __future__ import annotations

import threading
from typing import Dict

from repro.fg.typecheck import Prefix

_LOCK = threading.Lock()
_PREFIXES: Dict[bool, Prefix] = {}


def checked_prelude(ext: bool = False, instrumentation=None) -> Prefix:
    """The prelude checked by the core (or, with ``ext``, the extended)
    checker; built on the first call.

    When this call builds it, ``instrumentation`` (optional) records a
    ``prelude.check_once`` span and counts ``prelude.snapshot_builds``.
    """
    prefix = _PREFIXES.get(ext)
    if prefix is not None:
        return prefix
    with _LOCK:
        prefix = _PREFIXES.get(ext)
        if prefix is None:
            prefix = _build(ext, instrumentation)
            _PREFIXES[ext] = prefix
    return prefix


def _build(ext: bool, instrumentation) -> Prefix:
    from repro.diagnostics.limits import resource_scope
    from repro.fg.env import Env
    from repro.fg.typecheck import Checker
    from repro.observability import NULL_TRACER
    from repro.prelude import wrap
    from repro.syntax import parse_fg

    if ext:
        from repro.extensions.checker import ExtChecker as checker_cls
    else:
        checker_cls = Checker
    tracer = NULL_TRACER
    if instrumentation is not None:
        tracer = instrumentation.tracer
        if instrumentation.metrics is not None:
            instrumentation.metrics.inc("prelude.snapshot_builds")
    with tracer.span("prelude.check_once", ext=ext):
        # The hole holds a placeholder body; check_prefix stops before it.
        term = parse_fg(wrap("0"), "<prelude>")
        checker = checker_cls()
        with resource_scope(checker.limits):
            prefix, _ = checker.check_prefix(term, Env.initial())
    return prefix
