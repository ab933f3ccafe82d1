"""Seeded F_G program generator with known answers.

Every program carries its known answer: accepted with a value the generator
computed in Python, or rejected with the kind and the user-relative line of
the one error planted in it.  No answer comes from the checker under test;
:class:`Validator` cross-checks each value against the independent direct
interpreter ``repro.fg.interp.interpret`` once, outside any timing.

Program ``i`` of a seed is a pure function of ``(family, seed, i)``, and the
mix is stratified on ``i % 20`` so that any 20 consecutive programs hold the
same shares of planted errors, ``ext`` programs and self-contained programs
whatever the seed.  That keeps the workload's composition, and so its
figures, the same from seed to seed while the program text changes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Substring of the checker's message for each planted error kind.
ERROR_PATTERNS: Dict[str, str] = {
    "type-mismatch": "has type",
    "missing-model": "no model of",
    "unbound-name": "unbound variable",
    "redefinition": "already defined",
}

#: Strata of ``i % 20``: 3 of 20 programs (15%) carry a planted error,
#: 4 of 20 (20%) run with ``ext=True``, 6 of 20 (30%) are self-contained
#: (examples/fg style, no prelude names).
_ERROR_SLOTS = {3: "type-mismatch", 10: "missing-model", 16: "unbound-name"}
_LARGE_ERROR_SLOTS = {4: "type-mismatch", 11: "missing-model",
                      17: "unbound-name"}
_EXT_SLOTS = {1, 6, 12, 18}
_SELF_CONTAINED_SLOTS = {2, 5, 9, 13, 15, 19}

_OPS: Dict[str, Callable[[int, int], int]] = {
    "iadd": lambda a, b: a + b,
    "imult": lambda a, b: a * b,
    "imin": min,
    "imax": max,
}
_UNITS = {"iadd": 0, "imult": 1, "imin": 1000, "imax": -1000}


@dataclass(frozen=True)
class Program:
    """One generated input with its known answer."""

    name: str
    text: str
    #: Must be checked with the prelude (it uses prelude names).
    needs_prelude: bool
    ext: bool
    #: The value of an accepted program; ``None`` when it is rejected.
    value: Optional[int]
    #: Planted error kind (a key of :data:`ERROR_PATTERNS`) or ``None``.
    error: Optional[str] = None
    #: 1-based line of the planted error in ``text``.
    error_line: Optional[int] = None

    @property
    def accepted(self) -> bool:
        return self.error is None

    @property
    def lines(self) -> int:
        return self.text.count("\n") + 1


def _fold_right(op: str, items: Sequence[int], unit: int) -> int:
    acc = unit
    for x in reversed(items):
        acc = _OPS[op](x, acc)
    return acc


def _lit(v: int) -> str:
    """An integer literal; the concrete syntax has no negative literals."""
    return str(v) if v >= 0 else f"ineg({-v})"


def _int_list(values: Sequence[int]) -> str:
    out = "nil[int]"
    for v in reversed(values):
        out = f"cons[int]({_lit(v)}, {out})"
    return out


class _Draft:
    """Accumulates lines, the values the final sum adds up, and the
    single-line result bindings an error can be planted in."""

    def __init__(self):
        self.lines: List[str] = []
        self.names: List[str] = []
        self.values: List[int] = []
        #: (line index, name, expression, missing-model variant)
        self.plantable: List[Tuple[int, str, str, Optional[str]]] = []

    def add(self, *lines: str) -> None:
        for line in lines:
            self.lines.extend(line.split("\n"))

    def value(self, name: str, value: int) -> None:
        """Count a binding the caller wrote itself in the final sum."""
        self.names.append(name)
        self.values.append(value)

    def result(self, name: str, expr: str, value: int,
               bad_call: Optional[str] = None) -> None:
        self.plantable.append((len(self.lines), name, expr, bad_call))
        self.lines.append(f"let {name} = {expr} in")
        self.value(name, value)

    def plant(self, kind: str, rng: random.Random, tag: str) -> int:
        """Corrupt one single-line result binding; returns its user line."""
        candidates = [r for r in self.plantable
                      if kind != "missing-model" or r[3] is not None]
        idx, name, expr, bad_call = rng.choice(candidates)
        if kind == "type-mismatch":
            bad = f"iadd({expr}, true)"
        elif kind == "unbound-name":
            bad = f"iadd({expr}, undefined_{tag})"
        else:
            bad = bad_call
        self.lines[idx] = f"let {name} = {bad} in"
        return idx + 1

    def finish(self) -> Tuple[str, int]:
        final = self.names[-1]
        for name in reversed(self.names[:-1]):
            final = f"iadd({name}, {final})"
        self.lines.append(final)
        return "\n".join(self.lines), sum(self.values)


# -- small programs (prelude-small, serve-mixed) ------------------------------


def _prelude_binding(b: _Draft, rng: random.Random, n: int,
                     lists: List[Tuple[str, List[int]]]) -> None:
    """One result binding built on a prelude algorithm."""
    if lists and rng.random() < 0.6:
        lname, items = rng.choice(lists)
    else:
        lo = rng.randint(0, 6)
        items = list(range(lo, lo + rng.randint(1, 7)))
        lname = f"range({lo}, {lo + len(items)})"
    kind = rng.randrange(9)
    if kind == 0:
        expr, value = f"accumulate[int]({lname})", sum(items)
    elif kind == 1:
        expr, value = f"accumulate_iter[list int]({lname})", sum(items)
    elif kind == 2:
        expr, value = f"count[list int]({lname})", len(items)
    elif kind == 3:
        probe = rng.randint(0, 9)
        expr = f"if contains[list int]({lname}, {probe}) then 1 else 0"
        value = int(probe in items)
    elif kind == 4:
        expr, value = f"min_element[list int]({lname})", min(items)
    elif kind == 5:
        lo = rng.randint(0, 5)
        other = list(range(lo, lo + rng.randint(0, 5)))
        expr = (f"accumulate[int](merge[list int, list int, list int]"
                f"({lname}, range({lo}, {lo + len(other)}), nil[int]))")
        value = sum(items) + sum(other)
    elif kind == 6:
        k = rng.randint(-9, 9)
        expr, value = f"square[int]({_lit(k)})", k * k
    elif kind == 7:
        c = rng.randint(1, 50)
        # A model in a nested scope shadows the prelude's Monoid<int>.
        expr = (f"(model Monoid<int> {{ identity_elt = {c}; }} in "
                f"accumulate[int]({lname}))")
        value = sum(items) + c
    else:
        expr = f"length_int(reverse_int({lname}, nil[int]))"
        value = len(items)
    bad = "min_element[list bool](cons[bool](true, nil[bool]))"
    b.result(f"v{n}", expr, value, bad)


def _list_def(b: _Draft, rng: random.Random, n: int,
              lists: List[Tuple[str, List[int]]], room: int) -> None:
    items = [rng.randint(0, 9) for _ in range(rng.randint(1, 6))]
    name = f"xs{n}"
    if rng.random() < 0.5 or len(items) + 2 > room:
        b.add(f"let {name} = {_int_list(items)} in")
    else:
        b.add(f"let {name} =")
        for v in items:
            b.add(f"  cons[int]({v},")
        b.add("  nil[int]" + ")" * len(items) + " in")
    lists.append((name, items))


def _self_contained(b: _Draft, rng: random.Random, tag: str,
                    n: int, kinds: int = 6) -> None:
    """One examples/fg-style component with fresh concept names; kinds
    below 4 declare a concept, so a missing model can be planted."""
    kind = rng.randrange(kinds)
    a, c = rng.randint(-20, 20), rng.randint(-20, 20)
    if kind == 0:  # scoped_models.fg
        op = rng.choice(["ilt", "igt"])
        b.add(f"concept Ord{tag}<t> {{ less{tag} : fn(t, t) -> bool; }} in",
              f"model Ord{tag}<int> {{ less{tag} = {op}; }} in",
              f"let pick{tag} = /\\t where Ord{tag}<t>.",
              f"  \\x : t. \\y : t. if Ord{tag}<t>.less{tag}(x, y) "
              "then x else y in")
        b.result(f"v{n}", f"pick{tag}[int]({_lit(a)})({_lit(c)})",
                 min(a, c) if op == "ilt" else max(a, c),
                 f"pick{tag}[bool](true)(false)")
    elif kind == 1:  # container.fg: associated types
        items = [rng.randint(0, 9) for _ in range(rng.randint(1, 4))]
        b.add(f"concept Box{tag}<c> {{",
              "  types elem;",
              f"  front{tag} : fn(c) -> elem;",
              "} in",
              f"model Box{tag}<list int> {{",
              "  types elem = int;",
              f"  front{tag} = car[int];",
              "} in",
              f"let peek{tag} = /\\c where Box{tag}<c>.",
              f"  \\xs : c. Box{tag}<c>.front{tag}(xs) in")
        b.result(f"v{n}", f"peek{tag}[list int]({_int_list(items)})",
                 items[0], f"peek{tag}[list bool](cons[bool](true, "
                 "nil[bool]))")
    elif kind == 2:  # equality.fg: same-type constraints
        b.add(f"concept Eq{tag}<t> {{ eq{tag} : fn(t, t) -> bool; }} in",
              f"model Eq{tag}<int> {{ eq{tag} = ieq; }} in",
              f"let both{tag} = /\\t, u where Eq{tag}<t>, Eq{tag}<u>, "
              "t == u.",
              f"  \\x : t. \\y : u. Eq{tag}<t>.eq{tag}(x, y) in")
        c = a if rng.random() < 0.5 else c
        b.result(f"v{n}",
                 f"if both{tag}[int, int]({_lit(a)})({_lit(c)}) then 1 else 0",
                 int(a == c), f"both{tag}[bool, bool](true)(true)")
    elif kind == 3:  # monoid.fg with fresh names
        op = rng.choice(["iadd", "imult"])
        unit = _UNITS[op]
        items = [rng.randint(1, 5) for _ in range(rng.randint(1, 4))]
        b.add(f"concept Sg{tag}<t> {{ op{tag} : fn(t, t) -> t; }} in",
              f"concept Mn{tag}<t> {{ refines Sg{tag}<t>; "
              f"unit{tag} : t; }} in",
              f"let fold{tag} = /\\t where Mn{tag}<t>.",
              f"  fix (\\f : fn(list t) -> t. \\ls : list t.",
              f"    if null[t](ls) then Mn{tag}<t>.unit{tag}",
              f"    else Mn{tag}<t>.op{tag}(car[t](ls), f(cdr[t](ls)))) in",
              f"model Sg{tag}<int> {{ op{tag} = {op}; }} in",
              f"model Mn{tag}<int> {{ unit{tag} = {_lit(unit)}; }} in")
        b.result(f"v{n}", f"fold{tag}[int]({_int_list(items)})",
                 _fold_right(op, items, unit),
                 f"fold{tag}[bool](nil[bool])")
    elif kind == 4:  # compose.fg
        k = rng.randint(1, 5)
        b.add(f"let compose{tag} = /\\a, b, c. \\f : fn(b) -> c. "
              "\\g : fn(a) -> b.",
              "  \\x : a. f(g(x)) in",
              f"let inc{tag} = \\x : int. iadd(x, {k}) in",
              f"let dbl{tag} = \\x : int. imult(x, 2) in")
        b.result(f"v{n}",
                 f"compose{tag}[int, int, int](inc{tag})(dbl{tag})({_lit(a)})",
                 a * 2 + k)
    else:  # pairs.fg
        b.add(f"type pair{tag} = (int * bool) in",
              f"let first{tag} = \\p : pair{tag}. (nth p 0) in")
        b.result(f"v{n}", f"first{tag}(({_lit(a)}, true))", a)


def small_program(seed: int, i: int, *,
                  self_contained: Optional[bool] = None,
                  allow_ext: bool = True) -> Program:
    """Program ``i`` of the small family: 3-20 lines.

    ``self_contained`` forces the flavour (the serve workload needs
    programs that also check without the prelude); by default it follows
    the stratum of ``i``.  ``allow_ext=False`` keeps section 6 syntax out,
    for callers that check with ``ext`` off.
    """
    rng = random.Random(f"small:{seed}:{i}")
    tag = str(i).replace("-", "n")  # warm-up programs have negative i
    slot = i % 20
    if self_contained is None:
        self_contained = slot in _SELF_CONTAINED_SLOTS
    ext = allow_ext and slot in _EXT_SLOTS and not self_contained
    error = _ERROR_SLOTS.get(slot)
    target = rng.randint(3, 20)
    b = _Draft()
    lists: List[Tuple[str, List[int]]] = []
    n = 0
    if self_contained:
        while True:
            concept_only = n == 0 and error == "missing-model"
            _self_contained(b, rng, f"{tag}x{n}", n,
                            4 if concept_only else 6)
            n += 1
            # Components run to 12 lines; a second one only if it fits.
            if len(b.lines) + 1 >= target or len(b.lines) > 7 or n == 2:
                break
    else:
        if ext:
            c = rng.randint(1, 30)
            hi = rng.randint(2, 8)
            lname = f"range(1, {hi})"
            items = list(range(1, hi))
            b.add(f"model m{tag} = Monoid<int> {{ identity_elt = {c}; }} in")
            b.result(f"v{n}", f"use m{tag} in accumulate[int]({lname})",
                     sum(items) + c,
                     "min_element[list bool](cons[bool](true, nil[bool]))")
            n += 1
        while len(b.lines) + 1 < target or not b.plantable:
            if rng.random() < 0.35 and len(b.lines) + 2 < target:
                _list_def(b, rng, n, lists, target - 2 - len(b.lines))
            else:
                _prelude_binding(b, rng, n, lists)
            n += 1
    error_line = b.plant(error, rng, tag) if error else None
    text, value = b.finish()
    return Program(
        name=f"small-{seed}-{i}.fg", text=text,
        needs_prelude=not self_contained, ext=ext,
        value=None if error else value, error=error, error_line=error_line,
    )


# -- large programs (nopre-large) -----------------------------------------------


def _alg_component(b: _Draft, rng: random.Random, k: int,
                   monoids: List[Tuple[str, str, int]], n: int) -> int:
    """A refinement chain Sg < Mn (< Gp) with int models and a fold."""
    op = rng.choice(list(_OPS))
    unit = _UNITS[op]
    b.add(f"concept Sg{k}<t> {{",
          f"  op{k} : fn(t, t) -> t;",
          "} in",
          f"concept Mn{k}<t> {{",
          f"  refines Sg{k}<t>;",
          f"  unit{k} : t;",
          "} in")
    deep = rng.random() < 0.5
    if deep:
        b.add(f"concept Gp{k}<t> {{",
              f"  refines Mn{k}<t>;",
              f"  inv{k} : fn(t) -> t;",
              "} in")
    b.add(f"model Sg{k}<int> {{ op{k} = {op}; }} in",
          f"model Mn{k}<int> {{ unit{k} = {_lit(unit)}; }} in")
    if deep:
        b.add(f"model Gp{k}<int> {{ inv{k} = ineg; }} in")
    b.add(f"let fold{k} = /\\t where Mn{k}<t>.",
          "  fix (\\f : fn(list t) -> t.",
          "    \\ls : list t.",
          f"      if null[t](ls) then Mn{k}<t>.unit{k}",
          f"      else Mn{k}<t>.op{k}(car[t](ls), f(cdr[t](ls)))) in")
    monoids.append((f"Mn{k}", op, k))
    for _ in range(rng.randint(1, 3)):
        items = [rng.randint(1, 5) for _ in range(rng.randint(1, 5))]
        b.result(f"r{n}", f"fold{k}[int]({_int_list(items)})",
                 _fold_right(op, items, unit), f"fold{k}[bool](nil[bool])")
        n += 1
    if deep:
        x = rng.randint(-9, 9)
        b.result(f"r{n}", f"Gp{k}<int>.inv{k}(Gp{k}<int>.op{k}({_lit(x)}, {_lit(x)}))",
                 -_OPS[op](x, x))
        n += 1
    if rng.random() < 0.6:
        # Models in a nested scope: the inner pair shadows the outer models
        # only inside the parenthesized expression.
        inner = rng.choice([o for o in _OPS if o != op])
        items = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
        b.add(f"let r{n} = (model Sg{k}<int> {{ op{k} = {inner}; }} in",
              f"  model Mn{k}<int> {{ unit{k} = {_lit(_UNITS[inner])}; }} in",
              f"  fold{k}[int]({_int_list(items)})) in")
        b.value(f"r{n}", _fold_right(inner, items, _UNITS[inner]))
        n += 1
    return n


def _iter_component(b: _Draft, rng: random.Random, k: int,
                    monoids: List[Tuple[str, str, int]], n: int) -> int:
    """An iterator concept with an associated type, its list model, and a
    generic zip-fold with 2-8 where clauses and same-type constraints
    (``arity`` iterators plus one monoid)."""
    mono, op, j = rng.choice(monoids)
    arity = 1 + (3 * k) % 7  # cycles through 1..7 over seven components
    it = f"It{k}"
    b.add(f"concept {it}<I> {{",
          "  types elt;",
          f"  nx{k} : fn(I) -> I;",
          f"  cur{k} : fn(I) -> elt;",
          f"  end{k} : fn(I) -> bool;",
          "} in",
          f"model {it}<list int> {{",
          "  types elt = int;",
          f"  nx{k} = \\ls : list int. cdr[int](ls);",
          f"  cur{k} = \\ls : list int. car[int](ls);",
          f"  end{k} = \\ls : list int. null[int](ls);",
          "} in")
    tvs = [f"I{m}" for m in range(1, arity + 1)]
    elt = f"{it}<I1>.elt"
    reqs = ", ".join(f"{it}<{t}>" for t in tvs) + f", {mono}<{elt}>"
    sames = ", ".join(f"{it}<{t}>.elt == {elt}" for t in tvs[1:])
    where = reqs + (f";\n    {sames}" if sames else "")
    b.add(f"let zip{k} = /\\{', '.join(tvs)} where {where}.")
    params = ", ".join(f"a{m} : {t}" for m, t in enumerate(tvs, 1))
    nexts = ", ".join(f"{it}<{t}>.nx{k}(a{m})" for m, t in enumerate(tvs, 1))
    body = f"f({nexts})"
    for m in range(arity, 0, -1):
        body = (f"{mono}<{elt}>.op{j}({it}<I{m}>.cur{k}(a{m}),\n"
                f"          {body})")
    b.add(f"  fix (\\f : fn({', '.join(tvs)}) -> {elt}.",
          f"    \\{params}.",
          f"      if {it}<I1>.end{k}(a1) then {mono}<{elt}>.unit{j}",
          f"      else {body}) in")
    for _ in range(rng.randint(1, 2)):
        length = rng.randint(1, 3 if op == "imult" else 5)
        lists = [[rng.randint(1, 4) for _ in range(length)]
                 for _ in range(arity)]
        interleaved = [lst[p] for p in range(length) for lst in lists]
        args = ", ".join(_int_list(lst) for lst in lists)
        inst = ", ".join(["list int"] * arity)
        b.result(f"r{n}", f"zip{k}[{inst}]({args})",
                 _fold_right(op, interleaved, _UNITS[op]),
                 f"zip{k}[{', '.join(['list bool'] * arity)}]"
                 f"({', '.join(['nil[bool]'] * arity)})")
        n += 1
    return n


def _eq_component(b: _Draft, rng: random.Random, k: int, n: int) -> int:
    b.add(f"concept Eq{k}<t> {{ eq{k} : fn(t, t) -> bool; }} in",
          f"model Eq{k}<int> {{ eq{k} = ieq; }} in",
          f"let same{k} = /\\t, u where Eq{k}<t>, Eq{k}<u>, t == u.",
          f"  \\x : t. \\y : u. Eq{k}<t>.eq{k}(x, y) in")
    x = rng.randint(0, 3)
    y = rng.randint(0, 3)
    b.result(f"r{n}", f"if same{k}[int, int]({x})({y}) then 1 else 0",
             int(x == y), f"same{k}[bool, bool](true)(false)")
    return n + 1


#: Component order of a large program, and so its cost for its size, is
#: fixed; names, values and the monoid each iterator fold uses are seeded.
_LARGE_PATTERN = ("alg", "iter", "iter", "eq", "iter", "alg", "iter", "iter")


def large_program(seed: int, i: int, target: Optional[int] = None) \
        -> Program:
    """Program ``i`` of the large family: 50-300 lines, no prelude.

    Sizes follow a golden-ratio sequence from a seeded offset, so any run of
    consecutive programs spreads evenly over 50-300 lines; ``target`` fixes
    the size instead.
    """
    rng = random.Random(f"large:{seed}:{i}")
    tag = str(i).replace("-", "n")
    if target is None:
        offset = random.Random(f"large-offset:{seed}").random()
        # Components run to about 35 lines, so targets stop at 265 to keep
        # programs within 300 lines.
        target = 50 + int(215 * ((offset + i * 0.6180339887) % 1.0))
    error = _LARGE_ERROR_SLOTS.get(i % 20)
    b = _Draft()
    monoids: List[Tuple[str, str, int]] = []
    k = n = 0
    while len(b.lines) + 1 < target:
        kind = _LARGE_PATTERN[k % len(_LARGE_PATTERN)]
        if kind == "alg":
            n = _alg_component(b, rng, k, monoids, n)
        elif kind == "iter":
            n = _iter_component(b, rng, k, monoids, n)
        else:
            n = _eq_component(b, rng, k, n)
        k += 1
    error_line = b.plant(error, rng, tag) if error else None
    text, value = b.finish()
    return Program(
        name=f"large-{seed}-{i}.fg", text=text, needs_prelude=False,
        ext=False, value=None if error else value, error=error,
        error_line=error_line,
    )


# -- known-answer validation -------------------------------------------------


class Validator:
    """Checks generated values against the direct F_G interpreter.

    Prelude programs are interpreted inside the parsed prelude: the user
    term is spliced in place of the prelude's final body, so the prelude is
    parsed once per process, not once per program.
    """

    def __init__(self):
        from repro.prelude import wrap
        from repro.syntax.parser_fg import parse_program

        self._parse = parse_program
        self._prelude_term = parse_program(wrap("0"))

    def _splice(self, term, user):
        if not hasattr(term, "body"):
            return user
        return replace(term, body=self._splice(term.body, user))

    def value(self, program: Program, prelude: bool):
        from repro.fg.interp import interpret

        term = self._parse(program.text, program.name)
        if prelude:
            term = self._splice(self._prelude_term, term)
        return interpret(term)

    def check(self, program: Program, prelude: bool) -> None:
        """Raise ``AssertionError`` when the generator's value is wrong."""
        if not program.accepted:
            return
        got = self.value(program, prelude)
        if got != program.value:
            raise AssertionError(
                f"{program.name}: generator says {program.value}, "
                f"interpreter says {got}\n{program.text}"
            )
