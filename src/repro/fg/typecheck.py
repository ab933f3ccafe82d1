"""Typechecking and translation of F_G to System F (paper Figures 8/9/12/13).

The checker is *type-directed translation*: ``check(e, env)`` returns the
F_G type of ``e`` together with its System F image, exactly as the paper's
judgement ``Gamma |- e : t ~> f``.  Dictionaries are nested tuples (Fig. 7);
where clauses become extra type parameters (one per associated-type slot)
plus dictionary parameters; member accesses become ``nth`` chains; type
equality is the congruence closure of the equalities in scope.

Theorems 1 and 2 (translation preserves well-typing) are made executable by
:func:`verify_image`, which re-checks a checked program's System F image
with the independent checker in :mod:`repro.systemf.typecheck` and compares
the result against the translated F_G type.  The pipeline's verify stage
runs it on the very ``(type, translation)`` its check stage produced, so the
program is checked in F_G once; :func:`verify_translation` is the library
form for a bare term (check, then :func:`verify_image`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.diagnostics.errors import Diagnostic, TypeError_
from repro.diagnostics.limits import (
    Budget,
    Limits,
    ResourceLimitError,
    resource_scope,
)
from repro.diagnostics.reporter import DiagnosticReport, DiagnosticReporter
from repro.fg import ast as G
from repro.fg.concepts import (
    assoc_slots,
    check_concept_arity,
    concept_def,
    find_member,
    members_with_paths,
    qualifying_subst,
)
from repro.fg.env import Env, ModelInfo, SolverCache
from repro.observability import (
    NULL_INSTRUMENTATION,
    Instrumentation,
    format_span,
)
from repro.observability.explain import ACCEPTED
from repro.systemf import ast as F
from repro.systemf import typecheck as sf_typecheck


class _ErrorLimit(Exception):
    """Internal control flow: the reporter's error cap was reached."""


def _contains_error(t: G.FGType) -> bool:
    """True when the recovery poison occurs anywhere inside ``t``."""
    if isinstance(t, G.ErrorType):
        return True
    if isinstance(t, (G.TVar, G.TBase)):
        return False
    if isinstance(t, G.TList):
        return _contains_error(t.elem)
    if isinstance(t, G.TFn):
        return any(map(_contains_error, t.params)) or _contains_error(t.result)
    if isinstance(t, G.TTuple):
        return any(map(_contains_error, t.items))
    if isinstance(t, (G.TAssoc, G.ConceptReq)):
        return any(map(_contains_error, t.args))
    if isinstance(t, G.TForall):
        return (
            _contains_error(t.body)
            or any(map(_contains_error, t.requirements))
            or any(
                _contains_error(s.left) or _contains_error(s.right)
                for s in t.same_types
            )
        )
    return False


def _poison_term(span=None) -> F.Term:
    """The System F placeholder standing in for an unchecked definition."""
    return F.Tuple_(span=span, items=())


def _let_chain(lets, body: F.Term) -> F.Term:
    """Wrap ``body`` in ``let name = bound in`` for each ``(name, bound,
    span)`` binding, outermost first."""
    for name, bound, span in reversed(lets):
        body = F.Let(span=span, name=name, bound=bound, body=body)
    return body


@dataclass(frozen=True)
class ScopeFrame:
    """A concept or model declaration enclosing a :class:`Prefix`'s hole.

    ``concept`` names the declared concept of a concept frame and is
    ``None`` for a model frame; ``outer``/``inner`` are the environments
    outside and inside the declaration.
    """

    concept: Optional[str]
    outer: Env
    inner: Env


@dataclass(frozen=True)
class Prefix:
    """A checked declaration prefix with a hole where a program goes.

    Concepts and models are lexically scoped expressions, so a library (the
    prelude) is a chain of declarations whose innermost body is the user's
    program.  A prefix records everything checking a program in that hole
    needs (see :meth:`Checker.check_program`).  It is immutable —
    environments are persistent — so one prefix serves any number of
    checks, from any number of threads.
    """

    #: The environment the prefix itself was checked under.
    base: Env
    #: The environment at the hole.
    env: Env
    #: The next fresh-name index at the hole, so names minted for the
    #: program never reuse a prefix dictionary name.
    counter: int
    #: Checker depth at the hole, and the deepest nesting inside the prefix.
    depth: int
    peak_depth: int
    #: Enclosing concept/model declarations, outermost first.
    frames: Tuple[ScopeFrame, ...]
    #: The prefix's translation as ``(name, bound, span)`` bindings,
    #: outermost first; the program's translation is their body.
    lets: Tuple[Tuple[str, F.Term, object], ...]

    def plug(self, body: F.Term) -> F.Term:
        """The whole program's translation, with ``body`` in the hole."""
        return _let_chain(self.lets, body)


@dataclass
class WhereResult:
    """Outcome of elaborating a where clause (the paper's ``bw``)."""

    env: Env
    assoc_vars: Tuple[str, ...]
    dict_params: Tuple[Tuple[str, F.Type], ...]
    fresh_to_assoc: Dict[str, G.FGType]


class Checker:
    """A single typechecking/translation session.

    Holds the congruence-solver cache and the fresh-name supply; stateless
    with respect to user programs, so one instance can check many terms.
    """

    #: Concept-member defaults are a section 6 extension; the core checker
    #: rejects them so that core programs stay within the paper's Figure 13.
    ALLOW_DEFAULTS = False

    def __init__(
        self,
        use_solver_cache: bool = True,
        reporter: Optional[DiagnosticReporter] = None,
        limits: Optional[Limits] = None,
        instrumentation: Optional[Instrumentation] = None,
    ):
        # ``use_solver_cache=False`` rebuilds the congruence solver on every
        # query — only useful for the ablation benchmark quantifying what
        # the cache buys.
        #
        # ``reporter`` switches on multi-error *recovery*: definition-level
        # type errors are reported and replaced by the ErrorType poison
        # instead of aborting.  ``limits`` configures the resource budgets;
        # the defaults guard against pathologically deep programs.
        #
        # ``instrumentation`` switches on observability (spans, metrics,
        # the model-resolution explain log); the default is the shared
        # null bundle and every hot site guards on ``_observing``, so the
        # disabled checker does no extra work beyond a flag test.
        self.limits = limits if limits is not None else Limits()
        self._budget = Budget(self.limits)
        self._reporter = reporter
        obs = (
            instrumentation if instrumentation is not None
            else NULL_INSTRUMENTATION
        )
        self._tracer = obs.tracer
        self._metrics = obs.metrics
        self._explain = obs.explain
        self._observing = (
            obs.tracer.enabled
            or obs.metrics is not None
            or obs.explain is not None
        )
        self._solvers = (
            SolverCache(
                self.limits.max_congruence_nodes,
                metrics=self._metrics,
                tracer=self._tracer if self._tracer.enabled else None,
            )
            if use_solver_cache
            else None
        )
        self._counter = itertools.count()

    # ------------------------------------------------------------------
    # Type equality and representatives
    # ------------------------------------------------------------------

    def solver(self, env: Env):
        if self._solvers is None:
            from repro.fg.congruence import solver_for_equalities

            return solver_for_equalities(
                env.equalities, self.limits.max_congruence_nodes,
                metrics=self._metrics,
                tracer=self._tracer if self._tracer.enabled else None,
            )
        return self._solvers.solver(env)

    def rep(self, t: G.FGType, env: Env) -> G.FGType:
        """The canonical representative of ``t`` under ``env``'s equalities."""
        if isinstance(t, G.ErrorType):
            return t
        return self.solver(env).representative(t)

    def equal(self, a: G.FGType, b: G.FGType, env: Env) -> bool:
        """Decide ``env |- a = b`` (congruence of the equalities in scope).

        The recovery poison absorbs comparison: a type containing
        :class:`~repro.fg.ast.ErrorType` equals everything, so follow-on
        checks of an already-reported failure stay silent.
        """
        if _contains_error(a) or _contains_error(b):
            return True
        solver = self.solver(env)
        if solver.equal(a, b):
            return True
        # A poisoned equivalence class (e.g. a recovered type alias merged
        # with ERROR) absorbs comparison like a syntactic poison.
        return solver.class_contains_error(a) or solver.class_contains_error(b)

    def _fresh(self, base: str) -> str:
        return f"{base}%{next(self._counter)}"

    def _fresh_dict(self, concept: str) -> str:
        return f"{concept}_dict%{next(self._counter)}"

    # ------------------------------------------------------------------
    # Well-formedness of types (Figures 8 and 12, left-hand premises)
    # ------------------------------------------------------------------

    def check_type_wf(
        self, t: G.FGType, env: Env, span=None, in_decl: bool = False
    ) -> None:
        """Check that ``t`` is well-formed in ``env``.

        ``in_decl`` relaxes the associated-type rule for use inside concept
        declarations, where member types may reference associated types of
        refined concepts before any model exists.
        """
        if isinstance(t, G.ErrorType):
            return  # poison: the failure was already reported
        if isinstance(t, G.TVar):
            if not env.has_tyvar(t.name):
                raise TypeError_(f"unbound type variable '{t.name}'", span)
            return
        if isinstance(t, G.TBase):
            if t.name not in ("int", "bool"):
                raise TypeError_(f"unknown base type '{t.name}'", span)
            return
        if isinstance(t, G.TList):
            self.check_type_wf(t.elem, env, span, in_decl)
            return
        if isinstance(t, G.TFn):
            for p in t.params:
                self.check_type_wf(p, env, span, in_decl)
            self.check_type_wf(t.result, env, span, in_decl)
            return
        if isinstance(t, G.TTuple):
            for item in t.items:
                self.check_type_wf(item, env, span, in_decl)
            return
        if isinstance(t, G.TAssoc):
            cdef = concept_def(env, t.concept, span)
            check_concept_arity(cdef, t.args, span)
            if t.member not in cdef.assoc_types:
                raise TypeError_(
                    f"concept {t.concept} has no associated type "
                    f"'{t.member}'",
                    span,
                )
            for a in t.args:
                self.check_type_wf(a, env, span, in_decl)
            if not in_decl and self.find_model(
                t.concept, t.args, env, span
            ) is None:
                raise TypeError_(
                    f"no model of {t.concept}<"
                    f"{', '.join(map(str, t.args))}> in scope for associated "
                    f"type '{t.member}'",
                    span,
                )
            return
        if isinstance(t, G.TForall):
            if len(set(t.vars)) != len(t.vars):
                raise TypeError_("duplicate type parameter", span)
            inner = env.bind_tyvars(t.vars)
            for req in t.requirements:
                cdef = concept_def(inner, req.concept, span)
                check_concept_arity(cdef, req.args, span)
                for a in req.args:
                    self.check_type_wf(a, inner, span, in_decl=True)
            for same in t.same_types:
                self.check_type_wf(same.left, inner, span, in_decl=True)
                self.check_type_wf(same.right, inner, span, in_decl=True)
            self.check_type_wf(t.body, inner, span, in_decl=True)
            return
        if isinstance(t, G.ConceptReq):
            raise TypeError_(
                f"concept requirement {t} used where a type is expected", span
            )
        raise AssertionError(f"unknown F_G type node: {t!r}")

    # ------------------------------------------------------------------
    # Model lookup
    # ------------------------------------------------------------------

    def find_model(
        self, concept: str, args: Tuple[G.FGType, ...], env: Env, span=None
    ) -> Optional[ModelInfo]:
        """The innermost model of ``concept<args>`` modulo type equality.

        ``span`` (optional) only feeds the explain log's source locations;
        it never affects the result.
        """
        if self._observing:
            return self._find_model_observed(concept, args, env, span)
        for info in env.models_of(concept):
            if len(info.args) != len(args):
                continue
            if all(self.equal(a, b, env) for a, b in zip(info.args, args)):
                return info
        return None

    def _find_model_observed(
        self, concept: str, args: Tuple[G.FGType, ...], env: Env, span=None
    ) -> Optional[ModelInfo]:
        """The instrumented twin of :meth:`find_model` (same result, plus
        spans, metrics, and the explain decision log)."""
        tracer, metrics, explain = self._tracer, self._metrics, self._explain
        candidates = env.models_of(concept)
        handle = (
            tracer.span(
                "typecheck.model_lookup",
                concept=concept, candidates=len(candidates),
            )
            if tracer.enabled else None
        )
        if metrics is not None:
            metrics.inc("model_lookup.attempts")
        if explain is not None:
            explain.begin(
                concept,
                ", ".join(map(str, args)),
                scope_size=len(candidates),
                equalities_in_scope=len(env.equalities),
                location=format_span(span),
            )
        found = None
        scanned = 0
        try:
            for index, info in enumerate(candidates):
                scanned += 1
                if len(info.args) != len(args):
                    if explain is not None:
                        explain.candidate(
                            index, ", ".join(map(str, info.args)),
                            f"arity mismatch: candidate takes "
                            f"{len(info.args)} type argument(s), lookup "
                            f"supplies {len(args)}",
                        )
                    continue
                rejection = None
                for position, (have, want) in enumerate(
                    zip(info.args, args)
                ):
                    if not self.equal(have, want, env):
                        rejection = (
                            f"argument {position + 1}: "
                            f"{self.rep(want, env)} is not equal to "
                            f"{self.rep(have, env)} under the equalities "
                            "in scope"
                        )
                        break
                if rejection is None:
                    found = info
                    if explain is not None:
                        explain.candidate(
                            index, ", ".join(map(str, info.args)), ACCEPTED
                        )
                    break
                if explain is not None:
                    explain.candidate(
                        index, ", ".join(map(str, info.args)), rejection
                    )
        finally:
            if metrics is not None:
                metrics.inc("model_lookup.candidates", scanned)
                metrics.inc(
                    "model_lookup.hits" if found is not None
                    else "model_lookup.misses"
                )
                if scanned:
                    metrics.observe("model_lookup.scope_depth", scanned)
            if explain is not None:
                explain.finish(found is not None)
            if handle is not None:
                handle.__exit__(None, None, None)
        return found

    def require_model(
        self, concept: str, args: Tuple[G.FGType, ...], env: Env, span=None
    ) -> ModelInfo:
        info = self.find_model(concept, args, env, span)
        if info is None:
            raise TypeError_(
                f"no model of {concept}<{', '.join(map(str, args))}> in scope",
                span,
            )
        return info

    def dict_expr(self, info: ModelInfo) -> F.Term:
        """The System F expression for a model's dictionary: ``nth ... d``."""
        if info.prebuilt is not None:
            return info.prebuilt  # type: ignore[return-value]
        expr: F.Term = F.Var(name=info.dict_var)
        for index in info.path:
            expr = F.Nth(tuple_=expr, index=index)
        return expr

    # ------------------------------------------------------------------
    # Dictionary types (the delta of the paper's bm)
    # ------------------------------------------------------------------

    def dict_type_sf(
        self, concept: str, args: Tuple[G.FGType, ...], env: Env, span=None
    ) -> F.TTuple:
        """The System F tuple type of a dictionary for ``concept<args>``.

        Components: the refined concepts' dictionary types (in declaration
        order), then the member types, qualified at ``args`` and translated —
        so associated types appear as their current representatives (fresh
        type variables inside a generic function; concrete assignments at a
        concrete model).
        """
        cdef = concept_def(env, concept, span)
        check_concept_arity(cdef, args, span)
        subst = qualifying_subst(cdef, args)
        items: List[F.Type] = []
        for req in cdef.refines + cdef.nested:
            refined_args = tuple(G.substitute(a, subst) for a in req.args)
            items.append(self.dict_type_sf(req.concept, refined_args, env, span))
        for _, member_type in cdef.members:
            items.append(
                self.translate_type(G.substitute(member_type, subst), env, span)
            )
        return F.TTuple(tuple(items))

    # ------------------------------------------------------------------
    # Where-clause elaboration (the paper's bw/bm)
    # ------------------------------------------------------------------

    def process_where(
        self,
        vars_: Tuple[str, ...],
        requirements: Tuple[G.ConceptReq, ...],
        same_types: Tuple[G.SameType, ...],
        env: Env,
        span=None,
    ) -> WhereResult:
        """Bring a where clause into scope (paper's ``bw``).

        Binds the type parameters; for each requirement, registers proxy
        models for the concept and its refinement closure (de-duplicated
        across the whole clause), mints one fresh type variable per
        associated-type slot with the equality ``fresh = c<taus>.s``, and
        collects each concept's same-type requirements.  Explicit same-type
        constraints are merged before dictionary types are computed, so
        representatives already reflect them (the paper's ``merge`` example:
        both iterator dictionaries mention ``elt1``).
        """
        if self._observing:
            if self._metrics is not None:
                self._metrics.inc("typecheck.where_clauses")
            with self._tracer.span(
                "typecheck.where_clause",
                vars=", ".join(vars_), requirements=len(requirements),
                same_types=len(same_types),
            ):
                return self._process_where(
                    vars_, requirements, same_types, env, span
                )
        return self._process_where(vars_, requirements, same_types, env, span)

    def _process_where(
        self,
        vars_: Tuple[str, ...],
        requirements: Tuple[G.ConceptReq, ...],
        same_types: Tuple[G.SameType, ...],
        env: Env,
        span=None,
    ) -> WhereResult:
        if len(set(vars_)) != len(vars_):
            raise TypeError_("duplicate type parameter in where clause", span)
        clash = set(vars_) & env.tyvars
        if clash:
            raise TypeError_(
                f"type parameter(s) shadow enclosing scope: "
                f"{', '.join(sorted(clash))}",
                span,
            )
        free_clash = set(vars_) & env.free_type_vars()
        if free_clash:
            raise TypeError_(
                f"type parameter(s) not fresh for the environment: "
                f"{', '.join(sorted(free_clash))}",
                span,
            )
        env = env.bind_tyvars(vars_)
        seen = set()
        assoc_vars: List[str] = []
        fresh_to_assoc: Dict[str, G.FGType] = {}
        req_dict_vars: List[str] = []

        def register(concept: str, args: Tuple[G.FGType, ...],
                     dict_var: str, path: Tuple[int, ...]) -> None:
            nonlocal env
            key = (concept, args)
            if key in seen:
                return
            seen.add(key)
            if self._explain is not None:
                what = (
                    "requirement" if not path
                    else f"refinement (dictionary path {path})"
                )
                self._explain.refinement(
                    f"where-clause {what}: proxy model "
                    f"{concept}<{', '.join(map(str, args))}> registered"
                )
            cdef = concept_def(env, concept, span)
            check_concept_arity(cdef, args, span)
            assoc_map = {
                s: G.TAssoc(concept, args, s) for s in cdef.assoc_types
            }
            equalities = []
            fresh_names = []
            for s in cdef.assoc_types:
                fresh = self._fresh(s)
                fresh_names.append(fresh)
                assoc_vars.append(fresh)
                fresh_to_assoc[fresh] = G.TAssoc(concept, args, s)
                equalities.append((G.TVar(fresh), G.TAssoc(concept, args, s)))
            subst = qualifying_subst(cdef, args)
            for same in cdef.same_types:
                equalities.append(
                    (G.substitute(same.left, subst),
                     G.substitute(same.right, subst))
                )
            env = env.bind_tyvars(fresh_names)
            env = env.add_model(
                ModelInfo(concept, args, dict_var, path, assoc_map)
            )
            env = env.add_equalities(equalities)
            for i, req in enumerate(cdef.refines + cdef.nested):
                refined_args = tuple(G.substitute(a, subst) for a in req.args)
                register(req.concept, refined_args, dict_var, path + (i,))

        for req in requirements:
            cdef = concept_def(env, req.concept, span)
            check_concept_arity(cdef, req.args, span)
            for a in req.args:
                self.check_type_wf(a, env, span)
            dict_var = self._fresh_dict(req.concept)
            req_dict_vars.append(dict_var)
            register(req.concept, req.args, dict_var, ())

        for same in same_types:
            self.check_type_wf(same.left, env, span)
            self.check_type_wf(same.right, env, span)
            env = env.add_equality(same.left, same.right)

        dict_params = tuple(
            (dict_var, self.dict_type_sf(req.concept, req.args, env, span))
            for dict_var, req in zip(req_dict_vars, requirements)
        )
        return WhereResult(env, tuple(assoc_vars), dict_params, fresh_to_assoc)

    # ------------------------------------------------------------------
    # Type translation (Figures 8 and 12)
    # ------------------------------------------------------------------

    def translate_type(self, t: G.FGType, env: Env, span=None) -> F.Type:
        """Translate an F_G type to System F, via class representatives."""
        t = self.rep(t, env)
        return self._translate_rep(t, env, span)

    def _translate_rep(self, t: G.FGType, env: Env, span=None) -> F.Type:
        if isinstance(t, G.ErrorType):
            # Recovery only: the program already failed; translate the
            # poison to unit so downstream structure stays well-formed.
            return F.TTuple(())
        if isinstance(t, G.TVar):
            if not env.has_tyvar(t.name):
                raise TypeError_(f"unbound type variable '{t.name}'", span)
            return F.TVar(t.name)
        if isinstance(t, G.TBase):
            return F.TBase(t.name)
        if isinstance(t, G.TList):
            return F.TList(self.translate_type(t.elem, env, span))
        if isinstance(t, G.TFn):
            return F.TFn(
                tuple(self.translate_type(p, env, span) for p in t.params),
                self.translate_type(t.result, env, span),
            )
        if isinstance(t, G.TTuple):
            return F.TTuple(
                tuple(self.translate_type(i, env, span) for i in t.items)
            )
        if isinstance(t, G.TAssoc):
            raise TypeError_(
                f"associated type {t} cannot be resolved here "
                "(no model or constraint determines it)",
                span,
            )
        if isinstance(t, G.TForall):
            where = self.process_where(
                t.vars, t.requirements, t.same_types, env, span
            )
            body = self.translate_type(t.body, where.env, span)
            if t.requirements:
                body = F.TFn(tuple(dt for _, dt in where.dict_params), body)
            return F.TForall(tuple(t.vars) + where.assoc_vars, body)
        raise TypeError_(f"{t} is not a translatable type", span)

    # ------------------------------------------------------------------
    # Terms (Figures 9 and 13)
    # ------------------------------------------------------------------

    def check(self, term: G.Term, env: Env) -> Tuple[G.FGType, F.Term]:
        """``Gamma |- e : t ~> f`` — type and System F translation of ``term``."""
        method_name = self._DISPATCH.get(type(term).__name__)
        if method_name is None:
            raise TypeError_(
                f"term form '{type(term).__name__}' is not part of core "
                "F_G (enable repro.extensions to use it)",
                term.span,
            )
        self._budget.enter_depth(term.span)
        try:
            return getattr(self, method_name)(term, env)
        finally:
            self._budget.leave_depth()

    def check_program(
        self, term: G.Term, env: Optional[Env] = None,
        prefix: Optional[Prefix] = None,
    ) -> Tuple[G.FGType, F.Term]:
        """Type and translation of ``term`` as a whole program.

        Without ``prefix`` this is :meth:`check` under ``env`` (default: the
        initial environment).  With ``prefix``, ``term`` is checked in the
        prefix's hole: fresh names and the depth budget continue from the
        hole, the enclosing declarations' scope-exit checks are replayed on
        the result type innermost first (reported at ``term``'s span), and
        the translation is the whole program's, with ``term``'s plugged in.
        """
        if prefix is None:
            return self.check(term, env if env is not None else Env.initial())
        self._counter = itertools.count(prefix.counter)
        self._budget.resume_depth(prefix.depth, prefix.peak_depth)
        fg_type, sf = self.check(term, prefix.env)
        for frame in reversed(prefix.frames):
            if frame.concept is None:
                fg_type = self._exit_model(
                    fg_type, frame.outer, frame.inner, term.span
                )
            else:
                fg_type = self._exit_concept(
                    frame.concept, fg_type, frame.inner, term.span
                )
        return fg_type, prefix.plug(sf)

    def check_prefix(self, term: G.Term, env: Env) -> Tuple[Prefix, G.Term]:
        """Check the declaration spine of ``term``, stopping at the hole.

        The spine is the chain of ``concept``/``model``/``let`` declarations
        whose bodies nest; the first body that is not one of them is the
        hole.  Each declaration is checked exactly as :meth:`check` would;
        returns the :class:`Prefix` and the (unchecked) term in the hole.
        """
        base = env
        frames: List[ScopeFrame] = []
        lets: List[Tuple[str, F.Term, object]] = []
        while isinstance(term, (G.ConceptExpr, G.ModelExpr, G.Let)):
            self._budget.enter_depth(term.span)
            if isinstance(term, G.ConceptExpr):
                inner = self._enter_concept(term, env)
                frames.append(ScopeFrame(term.concept.name, env, inner))
            elif isinstance(term, G.ModelExpr):
                inner, model_lets = self._enter_model(term, env)
                frames.append(ScopeFrame(None, env, inner))
                lets.extend(model_lets)
            else:
                bound_type, bound_sf = self.check(term.bound, env)
                inner = env.bind_var(term.name, bound_type)
                lets.append((term.name, bound_sf, term.span))
            env, term = inner, term.body
        prefix = Prefix(
            base=base, env=env, counter=next(self._counter),
            depth=self._budget.depth, peak_depth=self._budget.peak_depth,
            frames=tuple(frames), lets=tuple(lets),
        )
        return prefix, term

    def _check_recover(self, term: G.Term, env: Env) -> Tuple[G.FGType, F.Term]:
        """Check a definition; in recovery mode, poison it on type error.

        This is the checker's resynchronization point: with a reporter
        installed, a :class:`TypeError_` inside a binding or declaration is
        recorded and the definition's type becomes the absorbing
        :class:`~repro.fg.ast.ErrorType`, so checking continues into the
        rest of the program.  Resource exhaustion is *not* recovered — once
        a budget trips, the run stops.
        """
        if self._reporter is None:
            return self.check(term, env)
        try:
            return self.check(term, env)
        except TypeError_ as err:
            self._reporter.error(err)
            if self._reporter.at_limit:
                raise _ErrorLimit() from None
            return G.ERROR, _poison_term(term.span)

    # -- VAR / literals ---------------------------------------------------

    def _check_var(self, term: G.Var, env: Env):
        t = env.lookup_var(term.name)
        if t is None:
            raise TypeError_(f"unbound variable '{term.name}'", term.span)
        return t, F.Var(span=term.span, name=term.name)

    def _check_int(self, term: G.IntLit, env: Env):
        return G.INT, F.IntLit(span=term.span, value=term.value)

    def _check_bool(self, term: G.BoolLit, env: Env):
        return G.BOOL, F.BoolLit(span=term.span, value=term.value)

    # -- ABS / APP ----------------------------------------------------------

    def _check_lam(self, term: G.Lam, env: Env):
        inner = env
        sf_params = []
        for name, ptype in term.params:
            self.check_type_wf(ptype, env, term.span)
            sf_params.append((name, self.translate_type(ptype, env, term.span)))
            inner = inner.bind_var(name, ptype)
        body_type, body_sf = self.check(term.body, inner)
        return (
            G.TFn(tuple(pt for _, pt in term.params), body_type),
            F.Lam(span=term.span, params=tuple(sf_params), body=body_sf),
        )

    def _check_app(self, term: G.App, env: Env):
        fn_type, fn_sf = self.check(term.fn, env)
        fn_type = self.rep(fn_type, env)
        if isinstance(fn_type, G.ErrorType):
            # Poisoned function: still check the arguments (they may hold
            # independent errors) but absorb the application itself.
            for arg in term.args:
                self.check(arg, env)
            return G.ERROR, _poison_term(term.span)
        if not isinstance(fn_type, G.TFn):
            raise TypeError_(
                f"cannot apply non-function of type {fn_type}", term.span
            )
        if len(fn_type.params) != len(term.args):
            raise TypeError_(
                f"arity mismatch: function expects {len(fn_type.params)} "
                f"argument(s), got {len(term.args)}",
                term.span,
            )
        sf_args = []
        for i, (arg, expected) in enumerate(zip(term.args, fn_type.params)):
            actual, arg_sf = self.check(arg, env)
            if not self.equal(actual, expected, env):
                raise TypeError_(
                    f"argument {i + 1} has type {self.rep(actual, env)}, "
                    f"expected {self.rep(expected, env)}",
                    arg.span or term.span,
                )
            sf_args.append(arg_sf)
        return fn_type.result, F.App(
            span=term.span, fn=fn_sf, args=tuple(sf_args)
        )

    # -- TABS / TAPP ----------------------------------------------------------

    def _check_tylam(self, term: G.TyLam, env: Env):
        if not term.vars:
            raise TypeError_("type abstraction needs parameters", term.span)
        where = self.process_where(
            term.vars, term.requirements, term.same_types, env, term.span
        )
        body_type, body_sf = self.check(term.body, where.env)
        # Re-qualify: fresh associated-type variables must not escape into
        # the forall type, whose only binders are the declared parameters.
        requalify = {
            fresh: assoc for fresh, assoc in where.fresh_to_assoc.items()
        }
        result_type = G.TForall(
            term.vars,
            term.requirements,
            term.same_types,
            G.substitute(body_type, requalify),
        )
        if term.requirements:
            body_sf = F.Lam(
                span=term.span, params=where.dict_params, body=body_sf
            )
        sf = F.TyLam(
            span=term.span,
            vars=tuple(term.vars) + where.assoc_vars,
            body=body_sf,
        )
        return result_type, sf

    def _check_tyapp(self, term: G.TyApp, env: Env):
        fn_type, fn_sf = self.check(term.fn, env)
        fn_type = self.rep(fn_type, env)
        if isinstance(fn_type, G.ErrorType):
            for a in term.args:
                self.check_type_wf(a, env, term.span)
            return G.ERROR, _poison_term(term.span)
        if not isinstance(fn_type, G.TForall):
            raise TypeError_(
                f"cannot instantiate non-generic term of type {fn_type}",
                term.span,
            )
        if len(fn_type.vars) != len(term.args):
            raise TypeError_(
                f"expected {len(fn_type.vars)} type argument(s), "
                f"got {len(term.args)}",
                term.span,
            )
        for a in term.args:
            self.check_type_wf(a, env, term.span)
        if self._metrics is not None:
            self._metrics.inc("typecheck.instantiations")
            self._metrics.inc("typecheck.substitutions", len(fn_type.vars))
        subst = dict(zip(fn_type.vars, term.args))
        sf_tyargs = [self.translate_type(a, env, term.span) for a in term.args]
        # One extra type argument per associated-type slot, in the exact
        # order the abstraction's translation minted fresh variables.
        slots = assoc_slots(env, fn_type.requirements, subst)
        for slot in slots:
            info = self.require_model(
                slot.concept, slot.actual_args, env, term.span
            )
            assigned = info.assoc.get(slot.assoc_name)
            if assigned is None:
                raise TypeError_(
                    f"model of {slot.concept} lacks associated type "
                    f"'{slot.assoc_name}'",
                    term.span,
                )
            sf_tyargs.append(self.translate_type(assigned, env, term.span))
        # Requirement dictionaries.
        dict_args = []
        for req in fn_type.requirements:
            actual = tuple(G.substitute(a, subst) for a in req.args)
            info = self.require_model(req.concept, actual, env, term.span)
            dict_args.append(self.dict_expr(info))
        # Same-type constraints must hold at the instantiation (TAPP premise).
        for same in fn_type.same_types:
            left = G.substitute(same.left, subst)
            right = G.substitute(same.right, subst)
            holds = self.equal(left, right, env)
            if self._explain is not None:
                self._explain.note(
                    f"same-type constraint consulted at instantiation: "
                    f"{left} == {right} — "
                    f"{'holds' if holds else 'VIOLATED'}"
                )
            if not holds:
                raise TypeError_(
                    f"same-type constraint violated at instantiation: "
                    f"{left} == {right} does not hold "
                    f"(left is {self.rep(left, env)}, "
                    f"right is {self.rep(right, env)})",
                    term.span,
                )
        result_type = self.rep(G.substitute(fn_type.body, subst), env)
        sf: F.Term = F.TyApp(span=term.span, fn=fn_sf, args=tuple(sf_tyargs))
        if fn_type.requirements:
            sf = F.App(span=term.span, fn=sf, args=tuple(dict_args))
        return result_type, sf

    # -- LET / tuples / control ---------------------------------------------

    def _check_let(self, term: G.Let, env: Env):
        # A ``let`` bound is a recovery boundary: in reporter mode a type
        # error in the bound poisons the binding and checking continues
        # with the body, so independent errors in later bindings surface.
        if self._observing:
            if self._metrics is not None:
                self._metrics.inc("typecheck.bindings")
            if self._tracer.enabled:
                with self._tracer.span("check.binding", name=term.name):
                    bound_type, bound_sf = self._check_recover(
                        term.bound, env
                    )
            else:
                bound_type, bound_sf = self._check_recover(term.bound, env)
        else:
            bound_type, bound_sf = self._check_recover(term.bound, env)
        body_type, body_sf = self.check(
            term.body, env.bind_var(term.name, bound_type)
        )
        return body_type, F.Let(
            span=term.span, name=term.name, bound=bound_sf, body=body_sf
        )

    def _check_tuple(self, term: G.Tuple_, env: Env):
        types = []
        terms = []
        for item in term.items:
            t, sf = self.check(item, env)
            types.append(t)
            terms.append(sf)
        return G.TTuple(tuple(types)), F.Tuple_(
            span=term.span, items=tuple(terms)
        )

    def _check_nth(self, term: G.Nth, env: Env):
        tuple_type, tuple_sf = self.check(term.tuple_, env)
        tuple_type = self.rep(tuple_type, env)
        if isinstance(tuple_type, G.ErrorType):
            return G.ERROR, _poison_term(term.span)
        if not isinstance(tuple_type, G.TTuple):
            raise TypeError_(
                f"nth applied to non-tuple of type {tuple_type}", term.span
            )
        if not 0 <= term.index < len(tuple_type.items):
            raise TypeError_(
                f"tuple index {term.index} out of range", term.span
            )
        return tuple_type.items[term.index], F.Nth(
            span=term.span, tuple_=tuple_sf, index=term.index
        )

    def _check_if(self, term: G.If, env: Env):
        cond_type, cond_sf = self.check(term.cond, env)
        if not self.equal(cond_type, G.BOOL, env):
            raise TypeError_(
                f"if condition has type {self.rep(cond_type, env)}, "
                "expected bool",
                term.span,
            )
        then_type, then_sf = self.check(term.then, env)
        else_type, else_sf = self.check(term.else_, env)
        if not self.equal(then_type, else_type, env):
            raise TypeError_(
                f"if branches disagree: {self.rep(then_type, env)} vs "
                f"{self.rep(else_type, env)}",
                term.span,
            )
        return then_type, F.If(
            span=term.span, cond=cond_sf, then=then_sf, else_=else_sf
        )

    def _check_fix(self, term: G.Fix, env: Env):
        fn_type, fn_sf = self.check(term.fn, env)
        fn_type = self.rep(fn_type, env)
        if isinstance(fn_type, G.ErrorType):
            return G.ERROR, _poison_term(term.span)
        if (
            not isinstance(fn_type, G.TFn)
            or len(fn_type.params) != 1
            or not self.equal(fn_type.params[0], fn_type.result, env)
        ):
            raise TypeError_(f"fix expects fn(A) -> A, got {fn_type}", term.span)
        result = self.rep(fn_type.result, env)
        if not isinstance(result, G.TFn):
            raise TypeError_(
                f"fix is restricted to function-typed fixpoints (got {result})",
                term.span,
            )
        return result, F.Fix(span=term.span, fn=fn_sf)

    # -- CPT: concept declaration (Figures 9 and 13) ---------------------------

    def _check_concept(self, term: G.ConceptExpr, env: Env):
        cdef = term.concept
        if self._tracer.enabled:
            with self._tracer.span("check.concept", name=cdef.name):
                return self._check_concept_inner(term, env)
        return self._check_concept_inner(term, env)

    def _check_concept_inner(self, term: G.ConceptExpr, env: Env):
        inner = self._enter_concept(term, env)
        body_type, body_sf = self.check(term.body, inner)
        return (
            self._exit_concept(term.concept.name, body_type, inner, term.span),
            body_sf,
        )

    def _enter_concept(self, term: G.ConceptExpr, env: Env) -> Env:
        """Validate a concept declaration; the environment of its body."""
        cdef = term.concept
        if self._reporter is not None:
            try:
                self._validate_concept(cdef, env, term.span)
            except TypeError_ as err:
                self._reporter.error(err)
                if self._reporter.at_limit:
                    raise _ErrorLimit() from None
                # Proceed with the (possibly ill-formed) declaration in
                # scope so uses of the concept don't cascade into
                # unknown-concept errors.
        else:
            self._validate_concept(cdef, env, term.span)
        return env.add_concept(cdef)

    def _exit_concept(
        self, name: str, body_type: G.FGType, inner: Env, span
    ) -> G.FGType:
        """Leave a concept's scope: the body type must not mention it."""
        body_type = self.rep(body_type, inner)
        if name in G.concept_names(body_type):
            raise TypeError_(
                f"concept '{name}' escapes its scope in the result "
                f"type {body_type}",
                span,
            )
        return body_type

    def _validate_concept(self, cdef: G.ConceptDef, env: Env, span) -> None:
        if env.lookup_concept(cdef.name) is not None:
            # Lexical shadowing of concepts would make model lookups for the
            # outer concept ambiguous; reject for clarity.
            raise TypeError_(
                f"concept '{cdef.name}' is already defined in this scope",
                span,
            )
        if len(set(cdef.params)) != len(cdef.params):
            raise TypeError_("duplicate concept parameter", span)
        if len(set(cdef.assoc_types)) != len(cdef.assoc_types):
            raise TypeError_("duplicate associated-type name", span)
        if set(cdef.params) & set(cdef.assoc_types):
            raise TypeError_(
                "associated-type name clashes with concept parameter",
                span,
            )
        names = cdef.member_names()
        if len(set(names)) != len(names):
            raise TypeError_("duplicate concept member name", span)
        if cdef.defaults:
            if not self.ALLOW_DEFAULTS:
                raise TypeError_(
                    "concept-member defaults require repro.extensions",
                    span,
                )
            default_names = [n for n, _ in cdef.defaults]
            if len(set(default_names)) != len(default_names):
                raise TypeError_("duplicate member default", span)
            unknown = set(default_names) - set(names)
            if unknown:
                raise TypeError_(
                    f"default(s) for unknown member(s): "
                    f"{', '.join(sorted(unknown))}",
                    span,
                )
        decl_env = env.bind_tyvars(cdef.params + cdef.assoc_types)
        for req in cdef.refines + cdef.nested:
            refined = concept_def(env, req.concept, span)
            check_concept_arity(refined, req.args, span)
            for a in req.args:
                self.check_type_wf(a, decl_env, span, in_decl=True)
        for _, member_type in cdef.members:
            self.check_type_wf(member_type, decl_env, span, in_decl=True)
        for same in cdef.same_types:
            self.check_type_wf(same.left, decl_env, span, in_decl=True)
            self.check_type_wf(same.right, decl_env, span, in_decl=True)

    # -- MDL: model declaration (Figures 9 and 13) ------------------------------

    def _check_model(self, term: G.ModelExpr, env: Env):
        if self._tracer.enabled:
            with self._tracer.span(
                "check.model", concept=term.model.concept
            ):
                return self._check_model_inner(term, env)
        return self._check_model_inner(term, env)

    def _check_model_inner(self, term: G.ModelExpr, env: Env):
        entered = self._enter_model(term, env)
        if entered is None:
            # The concept itself is unknown; without its shape we cannot
            # fake a model, so check the body as-is.
            return self.check(term.body, env)
        inner, lets = entered
        body_type, body_sf = self.check(term.body, inner)
        return (
            self._exit_model(body_type, env, inner, term.span),
            _let_chain(lets, body_sf),
        )

    def _enter_model(self, term: G.ModelExpr, env: Env):
        """Elaborate a model declaration for its body.

        Returns ``(inner, lets)``: the body's environment and the
        ``(name, bound, span)`` bindings, outermost first, that put the
        dictionary in scope of the body's translation.  ``None`` when a
        recovered failure left no model to register.
        """
        if self._reporter is None:
            elaborated = self._elaborate_model(term.model, env, term.span)
        else:
            try:
                elaborated = self._elaborate_model(term.model, env, term.span)
            except TypeError_ as err:
                self._reporter.error(err)
                if self._reporter.at_limit:
                    raise _ErrorLimit() from None
                elaborated = self._poison_model(term.model, env, term.span)
                if elaborated is None:
                    return None
        info, equalities, bindings, dictionary = elaborated
        inner = env.add_model(info).add_equalities(equalities)
        lets = [(var, bound, term.span) for var, bound in bindings]
        lets.append((info.dict_var, dictionary, term.span))
        return inner, lets

    def _exit_model(
        self, body_type: G.FGType, env: Env, inner: Env, span
    ) -> G.FGType:
        """Leave a model's scope: the result type must make sense outside."""
        result_type = self.rep(body_type, inner)
        self.check_type_wf(result_type, env, span)
        return result_type

    def _poison_model(self, mdef: G.ModelDef, env: Env, span):
        """A placeholder elaboration for a model that failed to check.

        Registers the model under its declared concept and arguments with an
        empty dictionary so member accesses in the body resolve (to garbage
        the translation never runs) instead of cascading "no model in scope"
        errors.  Contributes *no* equalities: a bogus associated-type merge
        would corrupt the congruence closure for the whole scope.  Returns
        ``None`` when the concept itself is unknown.
        """
        if env.lookup_concept(mdef.concept) is None:
            return None
        info = ModelInfo(
            concept=mdef.concept,
            args=tuple(mdef.args),
            dict_var=self._fresh_dict(mdef.concept),
            path=(),
            assoc=dict(mdef.type_assignments),
        )
        return info, (), (), _poison_term(span)

    def _elaborate_model(self, mdef: G.ModelDef, env: Env, span):
        """Check a model declaration; build its dictionary.

        Returns ``(info, equalities, bindings, dictionary)``: the
        :class:`ModelInfo` to register, the associated-type equalities it
        contributes, auxiliary ``let`` bindings the dictionary needs (empty
        in core F_G; used by the defaults extension), and the dictionary
        tuple expression.
        """
        cdef = concept_def(env, mdef.concept, span)
        check_concept_arity(cdef, mdef.args, span)
        for a in mdef.args:
            self.check_type_wf(a, env, span)
        # Associated-type assignments: exactly the required set.
        assigned = dict(mdef.type_assignments)
        if len(assigned) != len(mdef.type_assignments):
            raise TypeError_("duplicate associated-type assignment", span)
        required = set(cdef.assoc_types)
        if set(assigned) != required:
            missing = required - set(assigned)
            extra = set(assigned) - required
            details = []
            if missing:
                details.append(f"missing: {', '.join(sorted(missing))}")
            if extra:
                details.append(f"unexpected: {', '.join(sorted(extra))}")
            raise TypeError_(
                f"model of {cdef.name} has wrong associated types "
                f"({'; '.join(details)})",
                span,
            )
        for _, t in mdef.type_assignments:
            self.check_type_wf(t, env, span)
        # Associated-type equalities are collected over the whole lexical
        # environment, so a shadowing model may not *reassign* an associated
        # type already fixed by a visible model — that would merge two
        # distinct types (e.g. int = bool) in the congruence.  (Overlapping
        # models that keep assignments consistent — Figure 6 — are fine.)
        if self._explain is not None:
            self._explain.note(
                f"declaration probe: does model {cdef.name}<"
                f"{', '.join(map(str, mdef.args))}> shadow a visible model? "
                "(a failed lookup here is expected)"
            )
        existing = self.find_model(cdef.name, mdef.args, env)
        if existing is not None:
            for s, new_assignment in assigned.items():
                old = existing.assoc.get(s)
                if old is None or isinstance(old, G.TAssoc):
                    continue  # proxy models carry no concrete assignment
                if not self.equal(old, new_assignment, env):
                    raise TypeError_(
                        f"model of {cdef.name}<"
                        f"{', '.join(map(str, mdef.args))}> shadows a model "
                        f"with a different assignment for associated type "
                        f"'{s}' ({old} vs {new_assignment})",
                        span,
                    )
        # The model substitution S: params to args, associated names to
        # their assignments (paper's S = taus, sigmas).
        subst: Dict[str, G.FGType] = dict(zip(cdef.params, mdef.args))
        subst.update(assigned)
        # Refinements — and nested requirements on the associated types —
        # must already be modeled in scope.
        refined_infos = []
        for req in cdef.refines + cdef.nested:
            refined_args = tuple(G.substitute(a, subst) for a in req.args)
            refined_infos.append(
                self.require_model(req.concept, refined_args, env, span)
            )
        # Same-type requirements of the concept must hold.
        for same in cdef.same_types:
            left = G.substitute(same.left, subst)
            right = G.substitute(same.right, subst)
            if not self.equal(left, right, env):
                raise TypeError_(
                    f"model of {cdef.name} violates same-type requirement "
                    f"{same.left} == {same.right} "
                    f"(instantiated: {left} vs {right})",
                    span,
                )
        dict_var = self._fresh_dict(cdef.name)
        bindings, member_exprs = self._elaborate_members(
            cdef, mdef, subst, assigned, env, span, dict_var
        )
        equalities = tuple(
            (G.TAssoc(cdef.name, mdef.args, s), t)
            for s, t in mdef.type_assignments
        )
        info = ModelInfo(cdef.name, mdef.args, dict_var, (), assigned)
        dictionary = F.Tuple_(
            span=span,
            items=tuple(self.dict_expr(i) for i in refined_infos)
            + tuple(member_exprs),
        )
        return info, equalities, bindings, dictionary

    def _elaborate_members(
        self, cdef: G.ConceptDef, mdef: G.ModelDef, subst, assigned,
        env: Env, span, dict_var: str,
    ):
        """Check member definitions; returns (bindings, tuple components).

        Core F_G requires exactly the declared member set and emits the
        checked terms directly into the dictionary tuple.  The defaults
        extension overrides this to fill in missing members.
        """
        defs = dict(mdef.member_defs)
        if len(defs) != len(mdef.member_defs):
            raise TypeError_("duplicate member definition", span)
        declared = set(cdef.member_names())
        if set(defs) != declared:
            missing = declared - set(defs)
            extra = set(defs) - declared
            details = []
            if missing:
                details.append(f"missing: {', '.join(sorted(missing))}")
            if extra:
                details.append(f"unexpected: {', '.join(sorted(extra))}")
            raise TypeError_(
                f"model of {cdef.name} has wrong members "
                f"({'; '.join(details)})",
                span,
            )
        member_sf = []
        for name, declared_type in cdef.members:
            expected = G.substitute(declared_type, subst)
            actual, sf = self.check(defs[name], env)
            if not self.equal(actual, expected, env):
                raise TypeError_(
                    f"member '{name}' of model {cdef.name}<"
                    f"{', '.join(map(str, mdef.args))}> has type "
                    f"{self.rep(actual, env)}, expected "
                    f"{self.rep(expected, env)}",
                    defs[name].span or span,
                )
            member_sf.append(sf)
        return [], member_sf

    # -- MEM: model member access ----------------------------------------------

    def _check_member(self, term: G.MemberAccess, env: Env):
        cdef = concept_def(env, term.concept, term.span)
        check_concept_arity(cdef, term.args, term.span)
        for a in term.args:
            self.check_type_wf(a, env, term.span)
        info = self.require_model(term.concept, term.args, env, term.span)
        entry = find_member(env, term.concept, term.args, term.member, term.span)
        if info.member_vars is not None:
            # Dictionary under construction (concept-member defaults): the
            # member is a directly bound variable, not a tuple component.
            if len(entry.path) > 1:
                raise TypeError_(
                    f"inside a default, access '{term.member}' through the "
                    f"concept that declares it ({entry.concept}), not "
                    f"through {term.concept}",
                    term.span,
                )
            bound = info.member_vars.get(term.member)
            if bound is None:
                raise TypeError_(
                    f"member '{term.member}' is not yet defined at this "
                    "point of the model (defaults may only use earlier "
                    "members)",
                    term.span,
                )
            return self.rep(entry.type, env), F.Var(span=term.span, name=bound)
        expr: F.Term = self.dict_expr(info)
        for index in entry.path:
            expr = F.Nth(span=term.span, tuple_=expr, index=index)
        return self.rep(entry.type, env), expr

    # -- ALS: type alias (Figure 13) ----------------------------------------------

    def _check_alias(self, term: G.TypeAlias, env: Env):
        aliased = term.aliased
        if self._reporter is None:
            if env.has_tyvar(term.name):
                raise TypeError_(
                    f"type alias '{term.name}' shadows a type variable",
                    term.span,
                )
            self.check_type_wf(aliased, env, term.span)
        else:
            try:
                if env.has_tyvar(term.name):
                    raise TypeError_(
                        f"type alias '{term.name}' shadows a type variable",
                        term.span,
                    )
                self.check_type_wf(aliased, env, term.span)
            except TypeError_ as err:
                self._reporter.error(err)
                if self._reporter.at_limit:
                    raise _ErrorLimit() from None
                # Alias the poison type instead so uses of the alias absorb
                # rather than repeat the failure.
                aliased = G.ERROR
        # Merge with the aliased type first so the alias variable never
        # becomes the class representative (it must not escape).
        inner = env.bind_tyvars((term.name,)).add_equality(
            aliased, G.TVar(term.name)
        )
        body_type, body_sf = self.check(term.body, inner)
        result_type = self.rep(body_type, inner)
        if term.name in G.free_type_vars(result_type):
            raise TypeError_(
                f"type alias '{term.name}' escapes its scope in the result "
                f"type {result_type}",
                term.span,
            )
        return result_type, body_sf

    _DISPATCH = {
        "Var": "_check_var",
        "IntLit": "_check_int",
        "BoolLit": "_check_bool",
        "Lam": "_check_lam",
        "App": "_check_app",
        "TyLam": "_check_tylam",
        "TyApp": "_check_tyapp",
        "Let": "_check_let",
        "Tuple_": "_check_tuple",
        "Nth": "_check_nth",
        "If": "_check_if",
        "Fix": "_check_fix",
        "ConceptExpr": "_check_concept",
        "ModelExpr": "_check_model",
        "MemberAccess": "_check_member",
        "TypeAlias": "_check_alias",
    }


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def typecheck(
    term: G.Term,
    env: Optional[Env] = None,
    *,
    prefix: Optional[Prefix] = None,
    limits: Optional[Limits] = None,
    instrumentation: Optional[Instrumentation] = None,
) -> Tuple[G.FGType, F.Term]:
    """Typecheck an F_G term; returns its type and System F translation.

    Fail-fast: raises the *first* :class:`TypeError_` encountered.  Use
    :func:`typecheck_all` to keep going and collect every diagnostic.
    ``prefix`` checks ``term`` in the hole of a checked declaration prefix
    (see :meth:`Checker.check_program`).  ``instrumentation`` (off by
    default) records spans/metrics/explain — see :mod:`repro.observability`.
    """
    checker = Checker(limits=limits, instrumentation=instrumentation)
    with resource_scope(checker.limits, getattr(term, "span", None)):
        return checker.check_program(term, env, prefix)


def typecheck_all(
    term: G.Term,
    env: Optional[Env] = None,
    *,
    prefix: Optional[Prefix] = None,
    max_errors: int = 20,
    limits: Optional[Limits] = None,
    reporter: Optional[DiagnosticReporter] = None,
    instrumentation: Optional[Instrumentation] = None,
) -> Tuple[Optional[G.FGType], Optional[F.Term], DiagnosticReport]:
    """Typecheck ``term``, recovering at binding boundaries.

    Unlike :func:`typecheck`, this does not stop at the first error: the
    checker poisons failed ``let`` bounds, model/concept/alias declarations
    with :data:`~repro.fg.ast.ERROR` and keeps going, so independent errors
    all surface in one run.  Returns ``(type, translation, report)``; the
    type and translation are ``None`` when the error unwound past every
    recovery point, and are only trustworthy when ``report.ok``.
    """
    return _run_collecting(
        Checker, term, env, prefix=prefix, max_errors=max_errors,
        limits=limits, reporter=reporter, instrumentation=instrumentation,
    )


def _run_collecting(
    checker_cls,
    term: G.Term,
    env: Optional[Env],
    *,
    prefix: Optional[Prefix] = None,
    max_errors: int,
    limits: Optional[Limits],
    reporter: Optional[DiagnosticReporter],
    instrumentation: Optional[Instrumentation] = None,
) -> Tuple[Optional[G.FGType], Optional[F.Term], DiagnosticReport]:
    """Shared engine behind :func:`typecheck_all` (core and extensions)."""
    if reporter is None:
        reporter = DiagnosticReporter(max_errors=max_errors)
    checker = checker_cls(
        reporter=reporter, limits=limits, instrumentation=instrumentation
    )
    result_type: Optional[G.FGType] = None
    sf_term: Optional[F.Term] = None
    try:
        with resource_scope(checker.limits, getattr(term, "span", None)):
            result_type, sf_term = checker.check_program(term, env, prefix)
    except _ErrorLimit:
        pass
    except (TypeError_, ResourceLimitError) as err:
        reporter.error(err)
    if instrumentation is not None and instrumentation.metrics is not None:
        instrumentation.metrics.set_max(
            "check.peak_depth", checker._budget.peak_depth
        )
    return result_type, sf_term, reporter.finish()


def type_of(term: G.Term, env: Optional[Env] = None) -> G.FGType:
    """The F_G type of ``term``."""
    return typecheck(term, env)[0]


def translate(term: G.Term, env: Optional[Env] = None) -> F.Term:
    """The System F translation of ``term``."""
    return typecheck(term, env)[1]


def verify_translation(
    term: G.Term, env: Optional[Env] = None, *,
    prefix: Optional[Prefix] = None,
) -> Tuple[G.FGType, F.Type]:
    """Executable Theorems 1 and 2 on a bare term: check, then re-check.

    Typechecks and translates ``term`` (fail-fast), then runs
    :func:`verify_image` over the result.  Returns the F_G type and the
    System F type of the image.  Raises :class:`TypeError_` if any step
    fails — which the theorems say cannot happen for well-typed input.
    With ``prefix`` the image re-checked is the whole program's: the
    prefix's translation with ``term``'s plugged into its hole.
    """
    fg_type, sf_term = typecheck(term, env, prefix=prefix)
    return fg_type, verify_image(fg_type, sf_term, env=env, prefix=prefix)


def verify_image(
    fg_type: G.FGType,
    sf_term: F.Term,
    *,
    env: Optional[Env] = None,
    prefix: Optional[Prefix] = None,
    checker_cls=None,
    limits: Optional[Limits] = None,
) -> F.Type:
    """Theorems 1 and 2 for one checked program: re-check its image.

    ``(fg_type, sf_term)`` is what checking a program produced.  Runs the
    independent System F checker (:mod:`repro.systemf.typecheck`) over
    ``sf_term`` and confirms that its type is ``fg_type`` translated by
    ``checker_cls`` (default :class:`Checker`) in the environment the
    program was checked under: ``prefix.base`` with a prefix, else ``env``
    (default: the initial environment).  Runs under ``limits``; returns the
    System F type and raises :class:`TypeError_` on a mismatch.
    """
    checker = (checker_cls or Checker)(limits=limits)
    if prefix is not None:
        outer = prefix.base
    else:
        outer = env if env is not None else Env.initial()
    with resource_scope(checker.limits, getattr(sf_term, "span", None)):
        sf_type = sf_typecheck.type_of(sf_term)
        expected = checker.translate_type(fg_type, outer)
    if not F.types_equal(sf_type, expected):
        raise TypeError_(
            "translation type mismatch (Theorem 1/2 violation — library "
            f"bug): System F says {sf_type}, expected {expected}"
        )
    return sf_type
