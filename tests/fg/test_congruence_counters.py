"""Pinned checker counters: the solver cache and representative memo are
invisible to everything but ``congruence.finds``.

The totals below were measured on the checker that re-extracted every
representative and looked every solver up by value.  A change to the
memo or to ``SolverCache`` must leave them exactly as they are; only
``congruence.finds`` may drop (see docs/OBSERVABILITY.md).  The large
programs come from the benchmark's program generator, so a change to that
generator means re-measuring these totals.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.observability import Instrumentation
from repro.pipeline import check_source

ROOT = Path(__file__).resolve().parents[2]

PINNED_KEYS = (
    "congruence.cache_hits",
    "congruence.solvers",
    "congruence.nodes",
    "congruence.unions",
    "model_lookup.attempts",
    "model_lookup.candidates",
    "model_lookup.hits",
    "model_lookup.misses",
)

EXAMPLES_TOTALS = {
    "congruence.cache_hits": 189,
    "congruence.solvers": 9,
    "congruence.nodes": 77,
    "congruence.unions": 5,
    "model_lookup.attempts": 17,
    "model_lookup.candidates": 12,
    "model_lookup.hits": 12,
    "model_lookup.misses": 5,
}

#: ``large_program(5, i)`` for ``i`` in 0..19.
LARGE_TOTALS = {
    "congruence.cache_hits": 68997,
    "congruence.solvers": 608,
    "congruence.nodes": 14752,
    "congruence.unions": 5646,
    "model_lookup.attempts": 5348,
    "model_lookup.candidates": 13684,
    "model_lookup.hits": 5122,
    "model_lookup.misses": 226,
}


def _totals(sources):
    totals = dict.fromkeys(PINNED_KEYS, 0)
    for name, text, ext in sources:
        outcome = check_source(
            text, name, ext=ext, instrumentation=Instrumentation.enabled()
        )
        for key in PINNED_KEYS:
            totals[key] += outcome.stats["counters"].get(key, 0)
    return totals


def test_examples_counters_pinned():
    sources = [
        (path.name, path.read_text(), False)
        for path in sorted((ROOT / "examples" / "fg").glob("*.fg"))
    ]
    assert _totals(sources) == EXAMPLES_TOTALS


@pytest.fixture
def large_program(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import gen

    yield gen.large_program
    sys.modules.pop("gen", None)


def test_large_program_counters_pinned(large_program):
    programs = [large_program(5, i) for i in range(20)]
    sources = [(f"large{i}.fg", p.text, p.ext) for i, p in enumerate(programs)]
    assert _totals(sources) == LARGE_TOTALS
