"""The pipeline's verify stage re-checks the translation it returns.

``check_source(verify=True)`` checks a program in F_G once and runs
:func:`~repro.fg.typecheck.verify_image` over the check stage's own
``(type, translation)``: the System F re-check of Theorems 1 and 2 covers
the exact term the pipeline returns and evaluates.  The reference is the
library :func:`verify_translation` on the bare term, which checks the
program again (fail-fast) before the same image check.  The two must agree
on verdicts, types and translations, and batch reports must stay
byte-identical to the ones the double-check pipeline produced.
"""

import hashlib
import importlib
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.diagnostics.errors import Diagnostic
from repro.extensions import ExtChecker
from repro.extensions import verify_translation as ext_verify_translation
from repro.fg.typecheck import Checker
from repro.fg.typecheck import verify_translation as fg_verify_translation
from repro.pipeline import check_source
from repro.prelude.checked import checked_prelude
from repro.service import BatchPolicy, check_batch
from repro.syntax import parse_fg
from repro.systemf import ast as F
from repro.testing import fuzz_mutants

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "properties"))
from fg_gen import program_specs  # noqa: E402

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "fg"

#: ``(ext, prelude)`` pairs every differential runs under.
MODES = [(False, False), (False, True), (True, False), (True, True)]
MODE_IDS = ["core", "core-prelude", "ext", "ext-prelude"]

#: SHA-256 of the canonical batch report over ``_batch_sources()`` with
#: ``verify=True``, as produced when the verify stage still re-ran the F_G
#: check (core/ext × without/with prelude).
PINNED_DIGESTS = {
    (False, False):
        "f14666d24a3f490ae557c938f11abc92da2f68640dddeaad8d718e5ba753c120",
    (False, True):
        "0d57408ac9284dfa45a354a126b2f8000494957ac9c9980bca7be41f6c30455d",
    (True, False):
        "378af28fc51cab6245ef76fdd85705018f9b89e4cfe51374d681a498c751032f",
    (True, True):
        "aa0f16b12d9100e675d5b6b5b24d3e2ddad590a17289574a6a39f49757ece7b0",
}


def _examples():
    return [(p.name, p.read_text()) for p in sorted(EXAMPLES.glob("*.fg"))]


def _batch_sources():
    return _examples() + [
        (f"mutant{k}.fg", text) for k, text in enumerate(fuzz_mutants(100))
    ]


def _library_verifies(text: str, ext: bool, prelude: bool) -> bool:
    verify = ext_verify_translation if ext else fg_verify_translation
    prefix = checked_prelude(ext) if prelude else None
    try:
        verify(parse_fg(text), prefix=prefix)
    except Diagnostic:
        return False
    return True


def _assert_matches_library(text: str, ext: bool, prelude: bool) -> None:
    """The pipeline agrees with the library path on one program."""
    outcome = check_source(text, ext=ext, prelude=prelude, verify=True)
    assert outcome.verified == _library_verifies(text, ext, prelude), text
    if not outcome.verified:
        return
    checker_cls = ExtChecker if ext else Checker
    prefix = checked_prelude(ext) if prelude else None
    fg_type, sf_term = checker_cls().check_program(
        parse_fg(text), None, prefix
    )
    assert outcome.type_ == fg_type
    assert outcome.translation == sf_term


class TestOneCheck:
    @pytest.mark.parametrize("ext,prelude", MODES, ids=MODE_IDS)
    def test_verify_checks_the_program_once(self, monkeypatch, ext, prelude):
        checked_prelude(ext)  # built outside the count
        calls = []
        original = Checker.check_program

        def counting(self, *args, **kwargs):
            calls.append(type(self))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Checker, "check_program", counting)
        outcome = check_source(
            (EXAMPLES / "container.fg").read_text(), ext=ext, prelude=prelude,
            verify=True, evaluate=True,
        )
        assert outcome.verified
        assert calls == [ExtChecker if ext else Checker]


class TestChecksTheReturnedTranslation:
    def test_a_wrong_translation_is_a_theorem_violation(self, monkeypatch):
        fg_typecheck_module = importlib.import_module("repro.fg.typecheck")
        original = fg_typecheck_module.typecheck_all

        def wrong_translation(*args, **kwargs):
            type_, _, report = original(*args, **kwargs)
            return type_, F.Tuple_(items=()), report

        monkeypatch.setattr(
            fg_typecheck_module, "typecheck_all", wrong_translation
        )
        outcome = check_source("iadd(1, 2)", verify=True)
        assert not outcome.verified
        assert not outcome.ok
        assert "Theorem 1/2 violation" in outcome.report.render()

    def test_the_well_typed_translation_verifies(self):
        outcome = check_source("iadd(1, 2)", verify=True)
        assert outcome.verified
        assert outcome.ok


class TestMatchesLibraryPath:
    @pytest.mark.parametrize("ext,prelude", MODES, ids=MODE_IDS)
    def test_examples(self, ext, prelude):
        for _, text in _examples():
            _assert_matches_library(text, ext, prelude)

    @pytest.mark.parametrize("ext,prelude", MODES, ids=MODE_IDS)
    def test_fuzz_mutants(self, ext, prelude):
        for text in fuzz_mutants(100):
            _assert_matches_library(text, ext, prelude)

    @pytest.mark.parametrize("ext,prelude", MODES, ids=MODE_IDS)
    @given(spec=program_specs())
    @settings(max_examples=25, deadline=None)
    def test_generated_programs(self, ext, prelude, spec):
        _assert_matches_library(spec.source, ext, prelude)

    @pytest.mark.parametrize("ext,prelude", MODES, ids=MODE_IDS)
    def test_batch_digest_is_unchanged(self, ext, prelude):
        report = check_batch(
            _batch_sources(),
            BatchPolicy(verify=True, ext=ext, prelude=prelude),
        )
        digest = hashlib.sha256(report.canonical_json().encode()).hexdigest()
        assert digest == PINNED_DIGESTS[(ext, prelude)]
