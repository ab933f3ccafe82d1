"""Experiment CC (section 5): congruence-closure scaling.

The paper leans on Nelson & Oppen's O(n log n) congruence closure for type
equality.  This bench sweeps the number of merged equalities and the depth
of type terms, asserting near-linear growth (the 'shape': doubling the
input should far less than quadruple the time).
"""

import pytest

from repro.fg import ast as G
from repro.fg.congruence import CongruenceSolver


def _chain_equalities(n: int):
    """a0 = a1 = ... = an, plus congruent structure above each."""
    out = []
    for i in range(n):
        out.append((G.TVar(f"a{i}"), G.TVar(f"a{i + 1}")))
    return out


def _assoc_equalities(n: int):
    """Fresh vars equated to associated types over a shared chain."""
    out = []
    for i in range(n):
        out.append(
            (G.TVar(f"e{i}"), G.TAssoc("It", (G.TVar(f"a{i % 8}"),), "elt"))
        )
    return out


def _deep_type(depth: int, leaf: G.FGType) -> G.FGType:
    t = leaf
    for _ in range(depth):
        t = G.TList(G.TFn((t,), t))
    return t


class TestMergeScaling:
    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_merge_chain(self, benchmark, n):
        eqs = _chain_equalities(n)

        def run():
            s = CongruenceSolver()
            for left, right in eqs:
                s.merge(left, right)
            return s

        s = benchmark(run)
        assert s.equal(G.TVar("a0"), G.TVar(f"a{n}"))

    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_merge_assoc_terms(self, benchmark, n):
        eqs = _assoc_equalities(n)

        def run():
            s = CongruenceSolver()
            for left, right in eqs:
                s.merge(left, right)
            return s

        benchmark(run)

    @pytest.mark.parametrize("depth", [8, 32, 128])
    def test_intern_deep_terms(self, benchmark, depth):
        t = _deep_type(depth, G.TVar("a"))

        def run():
            s = CongruenceSolver()
            s.merge(t, G.TVar("x"))
            return s.equal(G.TVar("x"), t)

        assert benchmark(run)


class TestNearLinearShape:
    def test_chain_growth_subquadratic(self):
        import time

        def cost(n: int) -> float:
            eqs = _chain_equalities(n)
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                s = CongruenceSolver()
                for left, right in eqs:
                    s.merge(left, right)
                best = min(best, time.perf_counter() - start)
            return best

        t1, t2 = cost(256), cost(1024)
        # 4x input; allow generous constant, reject quadratic (16x).
        assert t2 < t1 * 12, (t1, t2)

    def test_representative_after_many_merges(self, benchmark):
        s = CongruenceSolver()
        for left, right in _chain_equalities(512):
            s.merge(left, right)
        s.merge(G.TVar("a0"), G.INT)
        result = benchmark(lambda: s.representative(G.TVar("a400")))
        assert result == G.INT

    def test_representative_repeated(self, benchmark):
        # The checker asks for the same classes' representatives over and
        # over between merges; each class is extracted once.
        s = CongruenceSolver()
        for left, right in _assoc_equalities(256):
            s.merge(left, right)
        queries = [G.TAssoc("It", (G.TVar(f"a{i}"),), "elt") for i in range(8)]
        queries += [_deep_type(8, G.TVar(f"e{i}")) for i in range(8)]

        def run():
            return [s.representative(t) for t in queries for _ in range(8)]

        result = benchmark(run)
        assert result[0] == G.TVar("e0")
