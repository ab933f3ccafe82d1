"""Unit tests for the persistent F_G environment (the paper's Gamma)."""

from repro.fg import ast as G
from repro.fg.env import Env, ModelInfo, SolverCache


def simple_concept(name="C"):
    return G.ConceptDef(name, ("t",), members=(("op", G.TVar("t")),))


class TestPersistence:
    def test_bind_var_does_not_mutate(self):
        env = Env.initial()
        env2 = env.bind_var("x", G.INT)
        assert env.lookup_var("x") is None
        assert env2.lookup_var("x") == G.INT

    def test_tyvars(self):
        env = Env.initial().bind_tyvars(("a", "b"))
        assert env.has_tyvar("a")
        assert env.has_tyvar("b")
        assert not env.has_tyvar("c")

    def test_concepts(self):
        env = Env.initial()
        env2 = env.add_concept(simple_concept())
        assert env.lookup_concept("C") is None
        assert env2.lookup_concept("C").name == "C"

    def test_models_innermost_first(self):
        env = Env.initial().add_concept(simple_concept())
        outer = ModelInfo("C", (G.INT,), "d1", (), {})
        inner = ModelInfo("C", (G.INT,), "d2", (), {})
        env = env.add_model(outer).add_model(inner)
        assert env.models_of("C")[0].dict_var == "d2"
        assert env.models_of("C")[1].dict_var == "d1"

    def test_equalities_accumulate(self):
        env = Env.initial().add_equality(G.TVar("a"), G.INT)
        env2 = env.add_equality(G.TVar("b"), G.BOOL)
        assert len(env.equalities) == 1
        assert len(env2.equalities) == 2

    def test_extras_scoped(self):
        env = Env.initial()
        env2 = env.with_extra("key", {"m": 1})
        assert env.extra("key") is None
        assert env2.extra("key") == {"m": 1}

    def test_builtins_present(self):
        env = Env.initial()
        assert env.lookup_var("iadd") is not None
        assert env.lookup_var("cons") is not None
        t = env.lookup_var("nil")
        assert isinstance(t, G.TForall)


class TestFreeTypeVars:
    def test_initially_empty(self):
        assert Env.initial().free_type_vars() == frozenset()

    def test_var_binding_contributes(self):
        env = Env.initial().bind_var("x", G.TVar("a"))
        assert "a" in env.free_type_vars()

    def test_model_args_contribute(self):
        env = Env.initial().add_model(
            ModelInfo("C", (G.TVar("q"),), "d", (), {})
        )
        assert "q" in env.free_type_vars()

    def test_equalities_contribute(self):
        env = Env.initial().add_equality(G.TVar("z"), G.INT)
        assert "z" in env.free_type_vars()


class TestSolverCache:
    def test_same_equalities_share_solver(self):
        cache = SolverCache()
        env = Env.initial().add_equality(G.TVar("a"), G.INT)
        s1 = cache.solver(env)
        s2 = cache.solver(env)
        assert s1 is s2

    def test_different_equalities_different_solver(self):
        cache = SolverCache()
        env1 = Env.initial().add_equality(G.TVar("a"), G.INT)
        env2 = env1.add_equality(G.TVar("b"), G.BOOL)
        assert cache.solver(env1) is not cache.solver(env2)

    def test_solver_reflects_equalities(self):
        cache = SolverCache()
        env = Env.initial().add_equality(G.TVar("a"), G.INT)
        assert cache.solver(env).equal(G.TVar("a"), G.INT)

    def test_identity_and_value_hits_both_count(self):
        # The same tuple object hits by identity; an equal tuple rebuilt
        # elsewhere hits by value.  Both count as cache hits, and a value
        # hit after a different key returns that key's own solver.
        from repro.observability import MetricsRegistry

        metrics = MetricsRegistry()
        cache = SolverCache(metrics=metrics)
        env1 = Env.initial().add_equality(G.TVar("a"), G.INT)
        env2 = Env.initial().add_equality(G.TVar("b"), G.BOOL)
        twin = Env.initial().add_equality(G.TVar("a"), G.INT)
        assert twin.equalities is not env1.equalities
        s1, s2 = cache.solver(env1), cache.solver(env2)
        assert cache.solver(env2) is s2
        assert cache.solver(twin) is s1
        assert cache.solver(env1) is s1
        counters = metrics.snapshot()["counters"]
        assert counters["congruence.solvers"] == 2
        assert counters["congruence.cache_hits"] == 3
