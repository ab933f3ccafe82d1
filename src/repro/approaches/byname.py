"""By-name operation lookup (paper Figure 1d): a Cforall-like mini-language.

A *spec* names the function signatures a type parameter must support
(``spec number(type U) { U mult(U, U); }``); a ``forall`` function asserts
specs over its parameters (``forall(type T | number(T)) T square(T x)``).
Operations are **free-standing, overloadable functions**: declaring ``int
mult(int x, int y)`` anywhere makes ``int`` usable with ``number`` — the
compiler satisfies each assertion by searching the visible functions for one
with the required *name and signature*.  Instantiation is implicit (type
arguments inferred from the call).

This captures the C++/Cforall flavor the paper describes: retroactive
(a type qualifies as soon as someone writes the right function) but
name-based and unscoped — there is no semantic grouping, and two unrelated
functions that happen to share a name and signature are indistinguishable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.diagnostics.errors import EvalError, TypeError_

# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Type:
    pass


@dataclass(frozen=True)
class TInt(Type):
    def __str__(self) -> str:
        return "int"


@dataclass(frozen=True)
class TBool(Type):
    def __str__(self) -> str:
        return "bool"


@dataclass(frozen=True)
class TVar(Type):
    name: str

    def __str__(self) -> str:
        return self.name


INT = TInt()
BOOL = TBool()


@dataclass(frozen=True)
class FnSig:
    """A required function signature inside a spec."""

    name: str
    params: Tuple[Type, ...]
    ret: Type

    def __str__(self) -> str:
        return f"{self.ret} {self.name}({', '.join(map(str, self.params))})"


def substitute(t: Type, subst: Dict[str, Type]) -> Type:
    if isinstance(t, TVar):
        return subst.get(t.name, t)
    return t


def substitute_sig(sig: FnSig, subst: Dict[str, Type]) -> FnSig:
    return FnSig(
        sig.name,
        tuple(substitute(p, subst) for p in sig.params),
        substitute(sig.ret, subst),
    )


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Spec:
    """``spec name(type param) { sigs }``."""

    name: str
    param: str
    sigs: Tuple[FnSig, ...]


@dataclass(frozen=True)
class Assertion:
    """``spec_name(tyvar)`` after the ``|`` in a forall."""

    spec: str
    tyvar: str


@dataclass(frozen=True)
class FuncDecl:
    """A free-standing (overloadable) monomorphic function."""

    name: str
    params: Tuple[Tuple[str, Type], ...]
    ret: Type
    body: Optional["Expr"] = None
    builtin: Optional[str] = None

    @property
    def signature(self) -> FnSig:
        return FnSig(self.name, tuple(t for _, t in self.params), self.ret)


@dataclass(frozen=True)
class ForallFunc:
    """``forall(type T | spec(T)) Ret name(params) { body }``."""

    name: str
    type_params: Tuple[str, ...]
    assertions: Tuple[Assertion, ...]
    params: Tuple[Tuple[str, Type], ...]
    ret: Type
    body: "Expr"


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class IntLit(Expr):
    value: int


@dataclass(frozen=True)
class BoolLit(Expr):
    value: bool


@dataclass(frozen=True)
class Call(Expr):
    """``name(args)`` — may hit an overloaded function, a spec operation
    (inside a forall body), or a forall function (implicitly instantiated)."""

    name: str
    args: Tuple[Expr, ...]


@dataclass(frozen=True)
class Let(Expr):
    name: str
    bound: Expr
    body: Expr


@dataclass(frozen=True)
class If(Expr):
    cond: Expr
    then: Expr
    else_: Expr


@dataclass(frozen=True)
class Program:
    specs: Tuple[Spec, ...] = ()
    functions: Tuple[FuncDecl, ...] = ()
    foralls: Tuple[ForallFunc, ...] = ()
    main: Expr = IntLit(0)


#: Builtin free functions available to every program.
BUILTINS: Tuple[FuncDecl, ...] = (
    FuncDecl("add", (("a", INT), ("b", INT)), INT, builtin="add"),
    FuncDecl("sub", (("a", INT), ("b", INT)), INT, builtin="sub"),
    FuncDecl("lt", (("a", INT), ("b", INT)), BOOL, builtin="lt"),
    FuncDecl("eq", (("a", INT), ("b", INT)), BOOL, builtin="eq"),
)

_BUILTIN_IMPLS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "lt": lambda a, b: a < b,
    "eq": lambda a, b: a == b,
}


# ---------------------------------------------------------------------------
# Typechecking
# ---------------------------------------------------------------------------


class Checker:
    """Typechecker with by-name overload resolution and spec assertions."""

    def __init__(self, program: Program):
        self.program = program
        self.specs = {s.name: s for s in program.specs}
        if len(self.specs) != len(program.specs):
            raise TypeError_("duplicate spec declaration")
        self.functions: Dict[str, List[FuncDecl]] = {}
        for func in BUILTINS + program.functions:
            bucket = self.functions.setdefault(func.name, [])
            for existing in bucket:
                if existing.signature == func.signature:
                    raise TypeError_(
                        f"duplicate overload {func.signature}"
                    )
            bucket.append(func)
        self.foralls = {f.name: f for f in program.foralls}
        if len(self.foralls) != len(program.foralls):
            raise TypeError_("duplicate forall function")
        # Records (Call-node id -> resolution) for the interpreter.
        self.resolutions: Dict[int, tuple] = {}

    # -- by-name lookup -----------------------------------------------------

    def find_function(self, sig: FnSig) -> FuncDecl:
        """The by-name lookup: a visible function with this exact signature."""
        for func in self.functions.get(sig.name, ()):
            if func.signature == sig:
                return func
        raise TypeError_(
            f"no function matching {sig} (by-name lookup failed)"
        )

    def check_program(self) -> Type:
        for func in self.program.functions:
            self._check_function(func)
        for forall in self.program.foralls:
            self._check_forall(forall)
        return self.check_expr(self.program.main, {}, None)

    def _check_function(self, func: FuncDecl) -> None:
        if func.body is None:
            if func.builtin is None:
                raise TypeError_(
                    f"function '{func.name}' has neither body nor builtin"
                )
            return
        scope = dict(func.params)
        actual = self.check_expr(func.body, scope, None)
        if actual != func.ret:
            raise TypeError_(
                f"function '{func.name}' returns {actual}, "
                f"declared {func.ret}"
            )

    def _check_forall(self, forall: ForallFunc) -> None:
        tyvars = frozenset(forall.type_params)
        if len(tyvars) != len(forall.type_params):
            raise TypeError_(f"duplicate type parameter in '{forall.name}'")
        for assertion in forall.assertions:
            if assertion.spec not in self.specs:
                raise TypeError_(f"unknown spec '{assertion.spec}'")
            if assertion.tyvar not in tyvars:
                raise TypeError_(
                    f"assertion on unknown type parameter "
                    f"'{assertion.tyvar}'"
                )
        scope = dict(forall.params)
        actual = self.check_expr(forall.body, scope, forall)
        if actual != forall.ret:
            raise TypeError_(
                f"forall '{forall.name}' returns {actual}, "
                f"declared {forall.ret}"
            )

    # -- expressions ---------------------------------------------------------

    def check_expr(
        self,
        expr: Expr,
        scope: Dict[str, Type],
        enclosing: Optional[ForallFunc],
    ) -> Type:
        if isinstance(expr, Var):
            if expr.name not in scope:
                raise TypeError_(f"unbound variable '{expr.name}'")
            return scope[expr.name]
        if isinstance(expr, IntLit):
            return INT
        if isinstance(expr, BoolLit):
            return BOOL
        if isinstance(expr, Call):
            return self._check_call(expr, scope, enclosing)
        if isinstance(expr, Let):
            bound = self.check_expr(expr.bound, scope, enclosing)
            inner = dict(scope)
            inner[expr.name] = bound
            return self.check_expr(expr.body, inner, enclosing)
        if isinstance(expr, If):
            cond = self.check_expr(expr.cond, scope, enclosing)
            if cond != BOOL:
                raise TypeError_(f"if condition has type {cond}")
            then = self.check_expr(expr.then, scope, enclosing)
            else_ = self.check_expr(expr.else_, scope, enclosing)
            if then != else_:
                raise TypeError_(f"if branches disagree: {then} vs {else_}")
            return then
        raise AssertionError(f"unknown expression: {expr!r}")

    def _spec_signatures(
        self, enclosing: Optional[ForallFunc]
    ) -> List[FnSig]:
        """Signatures the enclosing forall's assertions bring into scope."""
        if enclosing is None:
            return []
        out = []
        for assertion in enclosing.assertions:
            spec = self.specs[assertion.spec]
            subst = {spec.param: TVar(assertion.tyvar)}
            out.extend(substitute_sig(s, subst) for s in spec.sigs)
        return out

    def _check_call(self, expr, scope, enclosing) -> Type:
        arg_types = [self.check_expr(a, scope, enclosing) for a in expr.args]
        # 1. A spec operation of the enclosing forall?
        for sig in self._spec_signatures(enclosing):
            if sig.name == expr.name and list(sig.params) == arg_types:
                self.resolutions[id(expr)] = ("spec", sig)
                return sig.ret
        # 2. A forall function, implicitly instantiated?
        forall = self.foralls.get(expr.name)
        if forall is not None:
            subst = self._infer(forall, arg_types)
            # Satisfy each assertion by by-name lookup at the inferred type.
            bindings: List[Tuple[FnSig, FnSig]] = []
            for assertion in forall.assertions:
                spec = self.specs[assertion.spec]
                actual = subst[assertion.tyvar]
                inner = {spec.param: actual}
                for sig in spec.sigs:
                    required = substitute_sig(sig, inner)
                    if isinstance(actual, TVar):
                        # Instantiated at an enclosing type parameter: the
                        # enclosing assertions must provide the operation.
                        if required not in self._spec_signatures(enclosing):
                            raise TypeError_(
                                f"assertion {assertion.spec}({actual}) not "
                                f"satisfiable: {required} not in scope"
                            )
                        bindings.append((substitute_sig(sig, {spec.param: TVar(assertion.tyvar)}), required))
                    else:
                        self.find_function(required)
                        bindings.append((substitute_sig(sig, {spec.param: TVar(assertion.tyvar)}), required))
            self.resolutions[id(expr)] = ("forall", forall.name, subst, bindings)
            expected = [substitute(t, subst) for _, t in forall.params]
            if arg_types != expected:
                raise TypeError_(
                    f"forall '{forall.name}' expects {expected}, "
                    f"got {arg_types}"
                )
            return substitute(forall.ret, subst)
        # 3. A plain overloaded function: match on argument types.
        candidates = [
            f
            for f in self.functions.get(expr.name, ())
            if list(t for _, t in f.params) == arg_types
        ]
        if len(candidates) == 1:
            self.resolutions[id(expr)] = ("plain", candidates[0])
            return candidates[0].ret
        if len(candidates) > 1:
            raise TypeError_(f"ambiguous call to '{expr.name}'")
        raise TypeError_(
            f"no function '{expr.name}' matching argument types "
            f"({', '.join(map(str, arg_types))})"
        )

    def _infer(self, forall: ForallFunc, arg_types) -> Dict[str, Type]:
        if len(arg_types) != len(forall.params):
            raise TypeError_(f"forall '{forall.name}' arity mismatch")
        subst: Dict[str, Type] = {}
        for (_, declared), actual in zip(forall.params, arg_types):
            if isinstance(declared, TVar) and declared.name in forall.type_params:
                prev = subst.get(declared.name)
                if prev is None:
                    subst[declared.name] = actual
                elif prev != actual:
                    raise TypeError_(
                        f"conflicting inference for '{declared.name}'"
                    )
            elif declared != actual:
                raise TypeError_(
                    f"cannot match {declared} against {actual}"
                )
        for name in forall.type_params:
            if name not in subst:
                raise TypeError_(
                    f"cannot infer type argument '{name}' for "
                    f"'{forall.name}'"
                )
        return subst


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


class Interpreter:
    """Evaluator replaying the checker's by-name resolutions.

    A forall call carries an *operation environment*: the concrete functions
    selected for each spec signature, passed down so the body's calls to
    spec operations hit the right overloads.
    """

    def __init__(self, program: Program, checker: Checker):
        self.program = program
        self.checker = checker

    def run(self):
        return self.eval(self.program.main, {}, {})

    def _call_func(self, func: FuncDecl, args, ops):
        if func.builtin is not None:
            return _BUILTIN_IMPLS[func.builtin](*args)
        scope = {n: v for (n, _), v in zip(func.params, args)}
        return self.eval(func.body, scope, {})

    def eval(self, expr: Expr, env: Dict[str, object], ops: Dict[FnSig, object]):
        if isinstance(expr, Var):
            if expr.name not in env:
                raise EvalError(f"unbound variable '{expr.name}'")
            return env[expr.name]
        if isinstance(expr, IntLit):
            return expr.value
        if isinstance(expr, BoolLit):
            return expr.value
        if isinstance(expr, Call):
            args = [self.eval(a, env, ops) for a in expr.args]
            resolution = self.checker.resolutions.get(id(expr))
            if resolution is None:
                raise EvalError(f"unresolved call to '{expr.name}'")
            if resolution[0] == "spec":
                _, sig = resolution
                func = ops.get(sig)
                if func is None:
                    raise EvalError(f"no operation bound for {sig}")
                return self._call_with(func, args, ops)
            if resolution[0] == "plain":
                return self._call_func(resolution[1], args, ops)
            _, name, _, bindings = resolution
            forall = self.checker.foralls[name]
            new_ops: Dict[FnSig, object] = {}
            for formal_sig, required in bindings:
                candidate = ops.get(required)
                if candidate is None:
                    candidate = self.checker.find_function(required)
                new_ops[formal_sig] = candidate
            scope = {n: v for (n, _), v in zip(forall.params, args)}
            return self.eval(forall.body, scope, new_ops)
        if isinstance(expr, Let):
            bound = self.eval(expr.bound, env, ops)
            inner = dict(env)
            inner[expr.name] = bound
            return self.eval(expr.body, inner, ops)
        if isinstance(expr, If):
            branch = expr.then if self.eval(expr.cond, env, ops) else expr.else_
            return self.eval(branch, env, ops)
        raise AssertionError(f"unknown expression: {expr!r}")

    def _call_with(self, func, args, ops):
        if isinstance(func, FuncDecl):
            return self._call_func(func, args, ops)
        raise EvalError(f"cannot call {func!r}")


def check(program: Program) -> Type:
    """Typecheck ``program``; returns the type of ``main``."""
    return Checker(program).check_program()


def run(program: Program):
    """Typecheck and evaluate ``program``."""
    checker = Checker(program)
    checker.check_program()
    return Interpreter(program, checker).run()
