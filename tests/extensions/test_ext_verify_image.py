"""Theorems 1 and 2 for the extended language, type for type.

The extended :func:`repro.extensions.verify_translation` re-checks the
image in System F *and* compares its type with the F_G type translated by
:class:`~repro.extensions.ExtChecker`, through the same
:func:`~repro.fg.typecheck.verify_image` as core F_G.  The property is
asserted on every program the other extension test modules get accepted.
"""

import importlib

import pytest

from repro import extensions as ext
from repro.diagnostics.errors import TypeError_
from repro.fg.env import Env
from repro.syntax import parse_fg
from repro.systemf import ast as F

MODULES = (
    "test_defaults",
    "test_named_models",
    "test_param_models",
    "test_specialization",
)


def _accepted_programs(monkeypatch):
    """``(term, env, prefix, fg_type)`` for every program the extension
    test modules typecheck successfully, gathered by running their tests
    with :func:`repro.extensions.typecheck` recorded."""
    accepted = []
    original = ext.typecheck

    def recording(term, env=None, **kwargs):
        fg_type, sf_term = original(term, env, **kwargs)
        accepted.append((term, env, kwargs.get("prefix"), fg_type))
        return fg_type, sf_term

    with monkeypatch.context() as patch:
        patch.setattr(ext, "typecheck", recording)
        for name in MODULES:
            module = importlib.import_module(name)
            for cls_name in dir(module):
                if not cls_name.startswith("Test"):
                    continue
                cls = getattr(module, cls_name)
                for test_name in dir(cls):
                    if test_name.startswith("test_"):
                        getattr(cls(), test_name)()
    return accepted


def test_ext_verify_returns_the_translated_type(monkeypatch):
    accepted = _accepted_programs(monkeypatch)
    assert len(accepted) >= 20
    for term, env, prefix, fg_type in accepted:
        if prefix is not None:
            outer = prefix.base
        else:
            outer = env if env is not None else Env.initial()
        expected = ext.ExtChecker().translate_type(fg_type, outer)
        verified_type, sf_type = ext.verify_translation(
            term, env, prefix=prefix
        )
        assert verified_type == fg_type
        assert F.types_equal(sf_type, expected), (sf_type, expected)


def test_ext_verify_rejects_an_image_of_the_wrong_type(monkeypatch):
    original = ext.typecheck

    def wrong_translation(*args, **kwargs):
        fg_type, _ = original(*args, **kwargs)
        return fg_type, F.Tuple_(items=())

    monkeypatch.setattr(ext, "typecheck", wrong_translation)
    with pytest.raises(TypeError_, match="Theorem 1/2 violation"):
        ext.verify_translation(parse_fg("iadd(1, 2)"))
