"""The prelude checked once per process, against textual wrapping.

``check_source(prelude=True)`` checks only the program, in the hole of the
prelude checked once per process (:mod:`repro.prelude.checked`).  The
reference is the textual whole program — ``wrap(text)`` checked with no
prelude — which is what the prelude flag used to mean.  The two must agree
on verdicts, types, translations, values, messages and report digests;
diagnostic lines differ only by the prelude's line count, except for scope
errors the prelude's own declarations raise, which the snapshot path
reports at the program's start.
"""

import hashlib
import os
import random
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.diagnostics.limits import Limits
from repro.diagnostics.reporter import diagnostic_to_dict
from repro.observability import Instrumentation, MetricsRegistry
from repro.pipeline import check_source
from repro.prelude import checked, wrap
from repro.service import BatchPolicy, canonicalize, check_batch
from repro.testing import FUZZ_SEEDS, mutate_source

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "fg"

#: Lines the textual whole program puts before the program's first line.
SHIFT = wrap("").count("\n")

#: Tight budgets, as the fuzz harness uses, so diverging mutants stay fast.
LIMITS = Limits(max_check_depth=500, max_eval_steps=200_000)

ALGORITHMS = (
    "accumulate[int](range(1, 11))",
    "accumulate_iter[list int](range(1, 5))",
    "count[list int](range(0, 9))",
    "copy[list int, list int](range(0, 3), nil[int])",
    "contains[list int](range(0, 5), 3)",
    "min_element[list int](cons[int](4, cons[int](1, nil[int])))",
    "reverse_int(merge[list int, list int, list int]"
    "(range(0, 3), range(1, 4), nil[int]), nil[int])",
    "square[int](7)",
    "let twice = \\x : int. iadd(x, x) in\nsquare[int](twice(3))",
    "model Semigroup<bool> { binary_op = bor; } in\n"
    "model Monoid<bool> { identity_elt = false; } in\n"
    "(accumulate[int](range(0, 4)), accumulate[bool](nil[bool]))",
    "let a = iadd(1, true) in\nlet b = if 3 then 4 else 5 in\n"
    "let c = (1)(2) in\n0",
    "concept Monoid<t> { e : t; } in 0",
    "accumulate[bool](nil[bool])",
    "",
)

#: Result types that mention a prelude concept: rejected at the prelude's
#: scope exit.
ESCAPES = (
    "accumulate",
    "square",
    "/\\t where Monoid<t>. \\x : t. x",
    "let f = square in\nf",
)

#: Result types a prelude model normalizes on the way out.
NORMALIZING = (
    "Iterator<list int>.curr(range(3, 5))",
    "let f = \\x : Iterator<list int>.elt. iadd(x, 1) in f(2)",
    "\\x : Iterator<list int>.elt. x",
    "Monoid<int>.identity_elt",
)


def fuzz_corpus(mutants: int = 100, seed: int = 0):
    """The fuzz seeds plus ``mutants`` mutants, as ``run_fuzz`` makes them."""
    rng = random.Random(seed)
    out = list(FUZZ_SEEDS)
    for k in range(mutants):
        mutant = mutate_source(FUZZ_SEEDS[k % len(FUZZ_SEEDS)], rng)
        for _ in range(rng.randrange(3)):
            mutant = mutate_source(mutant, rng)
        out.append(mutant)
    return out


def corpus():
    programs = [(p.name, p.read_text()) for p in sorted(EXAMPLES.glob("*.fg"))]
    programs += [(f"alg{i}.fg", t) for i, t in enumerate(ALGORITHMS)]
    programs += [(f"escape{i}.fg", t) for i, t in enumerate(ESCAPES)]
    programs += [(f"norm{i}.fg", t) for i, t in enumerate(NORMALIZING)]
    programs += [(f"fuzz{i}.fg", t) for i, t in enumerate(fuzz_corpus())]
    return programs


@pytest.fixture(scope="module")
def runs():
    """``ext`` -> ``[(name, text, textual outcome, snapshot outcome)]``."""
    kwargs = dict(verify=True, evaluate=True, limits=LIMITS)
    programs = corpus()
    return {
        ext: [
            (name, text,
             check_source(wrap(text), name, ext=ext, **kwargs),
             check_source(text, name, prelude=True, ext=ext, **kwargs))
            for name, text in programs
        ]
        for ext in (False, True)
    }


def diagnostics(outcome):
    return [diagnostic_to_dict(d) for d in outcome.report.diagnostics]


@pytest.mark.parametrize("ext", [False, True], ids=["core", "ext"])
def test_snapshot_path_agrees_with_textual_wrapping(runs, ext):
    for name, text, textual, snapshot in runs[ext]:
        where = f"{name} (ext={ext}):\n{text}"
        assert snapshot.ok == textual.ok, where
        assert snapshot.type_ == textual.type_, where
        assert snapshot.translation == textual.translation, where
        # repr: closures compare by identity, and print their parameters.
        assert repr(snapshot.value) == repr(textual.value), where
        assert snapshot.verified == textual.verified, where
        want, got = diagnostics(textual), diagnostics(snapshot)
        assert [d["message"] for d in got] == [d["message"] for d in want], \
            where
        for old, new in zip(want, got):
            assert new["file"] == old["file"], where
            if old["line"] is None:
                assert new["line"] is None, where
            elif old["line"] > SHIFT:
                assert (new["line"], new["col"]) == (
                    old["line"] - SHIFT, old["col"]
                ), where
            else:
                # Raised by a prelude declaration's scope exit: anchored at
                # the program instead of inside the prelude.
                start = snapshot.term.span.start
                assert (new["line"], new["col"]) == (
                    start.line, start.column
                ), where


def test_corpus_covers_every_case(runs):
    verdicts = {}
    for name, _, textual, _ in runs[False]:
        family = re.sub(r"\d*\.fg$", "", name)
        verdicts.setdefault(family, set()).add(textual.ok)
    assert verdicts["escape"] == {False}
    assert verdicts["norm"] == {True}
    assert verdicts["alg"] == {True, False}
    assert verdicts["fuzz"] == {True, False}


def test_accepted_report_digests_are_identical(runs):
    accepted = [(name, text) for name, text, _, snapshot in runs[False]
                if snapshot.ok]
    assert len(accepted) > 10

    def digest(report):
        files = canonicalize(report.to_json()["files"])
        return hashlib.sha256(files.encode("utf-8")).hexdigest()

    snapshot = check_batch(accepted, BatchPolicy(prelude=True, verify=True))
    textual = check_batch(
        [(name, wrap(text)) for name, text in accepted],
        BatchPolicy(verify=True),
    )
    assert snapshot.ok and textual.ok
    assert digest(snapshot) == digest(textual)


def test_pipeline_diagnostics_use_the_program_lines():
    out = check_source(
        "let a = iadd(1, true) in\nlet b = (1)(2) in\n0", "u.fg",
        prelude=True,
    )
    assert [str(d.span.start) for d in out.report.diagnostics] == [
        "1:17", "2:12",
    ]
    assert out.report.render().startswith("u.fg:1:17: type error:")


class TestScopeExit:
    def test_escaping_result_type_is_rejected_at_the_program(self):
        out = check_source("accumulate", "u.fg", prelude=True)
        assert not out.ok
        assert out.report.render() == (
            "u.fg:1:1: type error: concept 'Monoid' escapes its scope in "
            "the result type forall t where Monoid<t>. fn(list t) -> t"
        )

    def test_prelude_model_normalizes_the_result_type(self):
        out = check_source(
            "Iterator<list int>.curr(range(3, 5))", "u.fg", prelude=True,
            verify=True, evaluate=True,
        )
        assert out.ok and out.verified
        assert str(out.type_) == "int"
        assert out.value == 3

    def test_user_dictionaries_never_reuse_prelude_names(self):
        out = check_source(
            "model Semigroup<bool> { binary_op = bor; } in "
            "model Monoid<bool> { identity_elt = true; } in "
            "(Monoid<int>.identity_elt, Monoid<bool>.identity_elt)",
            "u.fg", prelude=True, evaluate=True,
        )
        assert out.ok and out.value == (0, True)


class TestOnePrefixPerChecker:
    def test_concurrent_first_checks_build_one_prefix_per_checker(
        self, monkeypatch
    ):
        monkeypatch.setattr(checked, "_PREFIXES", {})
        threads = 8
        barrier = threading.Barrier(threads)
        results = [None] * threads
        metrics = [MetricsRegistry() for _ in range(threads)]

        def first_check(i):
            barrier.wait()
            results[i] = check_source(
                "accumulate[int](range(1, 5))", "u.fg", prelude=True,
                ext=bool(i % 2), verify=True, evaluate=True,
                instrumentation=Instrumentation(metrics=metrics[i]),
            )

        workers = [
            threading.Thread(target=first_check, args=(i,))
            for i in range(threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the racing builds finely
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        builds = [builds_counted(m) for m in metrics]
        assert sum(builds[0::2]) == 1  # core checker
        assert sum(builds[1::2]) == 1  # extended checker
        assert all(r.ok and r.verified and r.value == 10 for r in results)
        assert all(r.type_ == results[0].type_ for r in results)
        assert all(
            r.translation == results[0].translation for r in results
        )

    def test_the_prefix_is_not_mutated_by_checks(self):
        prefix = checked.checked_prelude()
        env = prefix.env
        before = (
            dict(env._vars), dict(env._concepts),
            {k: tuple(v) for k, v in env._models.items()},
            env.equalities, prefix.counter, prefix.lets,
        )
        for text, _ in zip(ALGORITHMS + ESCAPES + NORMALIZING, range(99)):
            check_source(text, "u.fg", prelude=True, verify=True)
        assert checked.checked_prelude() is prefix
        assert before == (
            dict(env._vars), dict(env._concepts),
            {k: tuple(v) for k, v in env._models.items()},
            env.equalities, prefix.counter, prefix.lets,
        )

    def test_the_prefix_is_built_lazily(self):
        # In a fresh process: neither importing nor a check without the
        # prelude builds it; the first prelude check does, once.
        code = (
            "from repro.pipeline import check_source\n"
            "from repro.observability import Instrumentation, "
            "MetricsRegistry\n"
            "def builds(prelude):\n"
            "    inst = Instrumentation(metrics=MetricsRegistry())\n"
            "    check_source('iadd(1, 2)', prelude=prelude,\n"
            "                 instrumentation=inst)\n"
            "    counters = inst.metrics.snapshot()['counters']\n"
            "    return counters.get('prelude.snapshot_builds', 0)\n"
            "print(builds(False), builds(True), builds(True))\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["0", "1", "0"]


def builds_counted(metrics) -> int:
    return metrics.snapshot()["counters"].get("prelude.snapshot_builds", 0)
