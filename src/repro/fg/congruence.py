"""Congruence closure for F_G type equality (paper section 5).

With same-type constraints, type equality is no longer syntactic: it is "the
congruence that includes all the type equalities in Gamma".  The paper notes
this is exactly the quantifier-free theory of equality with uninterpreted
function symbols and cites the Nelson-Oppen congruence-closure algorithm
(JACM 1980).  This module implements that algorithm over F_G type terms:

- type constructors (``list``, ``fn``, tuples) and associated-type references
  ``c<taus>.s`` are treated as uninterpreted function symbols applied to
  their component types;
- type variables and base types are constants;
- ``forall`` types are interned as opaque constants keyed by an
  alpha-canonical form (equalities never look under binders — a conservative
  choice the paper shares, since its constraints range over first-order type
  expressions).

The solver also *externalizes* canonical representatives: the translation to
System F must print one representative per equivalence class (paper 5.2:
"the translation outputs the representative for each type expression"), and
inside a generic function that representative must be the fresh type variable
minted for an associated type, never the associated-type term itself.  We
achieve this with a cost-ranked extraction: ground constructors are cheapest,
type variables next, associated-type terms effectively infinite.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.diagnostics.errors import TypeError_
from repro.diagnostics.limits import ResourceLimitError
from repro.fg import ast as G

# Externalization label costs: prefer ground structure, then variables,
# and only fall back to an associated-type term when nothing else exists.
_COST_GROUND = 1
_COST_VAR = 5
_COST_ASSOC = 1_000_000
_COST_INFINITE = float("inf")


class CongruenceSolver:
    """Incremental congruence closure over F_G type terms.

    Terms are hash-consed into integer nodes; a union-find partitions nodes
    into equivalence classes; a signature table keyed by
    ``(label, class-of-child...)`` detects congruent parents when classes
    merge.  New terms may be interned after merges: signatures are computed
    against current class representatives, so congruence stays closed.
    """

    def __init__(self, max_nodes: Optional[int] = None, *,
                 metrics=None, tracer=None):
        # ``max_nodes`` bounds the hash-consed node count: a runaway
        # equality set becomes a ResourceLimitError, not a frozen process.
        # ``metrics``/``tracer`` are optional observability hooks
        # (``repro.observability``); every use is guarded so the disabled
        # path costs one load-and-branch.
        self._max_nodes = max_nodes
        self._metrics = metrics
        self._tracer = tracer
        self._labels: List[tuple] = []
        self._children: List[Tuple[int, ...]] = []
        self._uf_parent: List[int] = []
        self._uf_rank: List[int] = []
        self._use: Dict[int, List[int]] = {}
        self._members: Dict[int, List[int]] = {}
        self._sigtab: Dict[tuple, int] = {}
        self._opaque: Dict[int, G.FGType] = {}
        self._equalities: List[Tuple[G.FGType, G.FGType]] = []
        # Top-level representative per class root; cleared by every merge.
        self._reps: Dict[int, G.FGType] = {}

    # -- union-find ---------------------------------------------------------

    def _find(self, i: int) -> int:
        if self._metrics is not None:
            self._metrics.inc("congruence.finds")
        root = i
        while self._uf_parent[root] != root:
            root = self._uf_parent[root]
        while self._uf_parent[i] != root:
            self._uf_parent[i], i = root, self._uf_parent[i]
        return root

    def _new_node(self, label: tuple, children: Tuple[int, ...]) -> int:
        i = len(self._labels)
        if self._max_nodes is not None and i >= self._max_nodes:
            raise ResourceLimitError(
                f"type-equality solver exceeded its node budget "
                f"({self._max_nodes}); the same-type constraints in scope "
                "are too large for this run's limits",
                limit="congruence",
            )
        self._labels.append(label)
        self._children.append(children)
        self._uf_parent.append(i)
        self._uf_rank.append(0)
        self._use[i] = []
        self._members[i] = [i]
        if self._metrics is not None:
            self._metrics.inc("congruence.nodes")
        return i

    # -- interning ----------------------------------------------------------

    def intern(self, t: G.FGType) -> int:
        """Intern an F_G type, returning its node id (not its class root)."""
        return self._intern(t, {})

    def _intern(self, t: G.FGType, memo: Dict[int, int]) -> int:
        # Memoize by object identity within one call: type values are
        # frozen, so a shared sub-object (e.g. the repeated parameter in
        # ``fn(t) -> t``) is interned once — without this, deeply shared
        # terms cost exponential time.
        cached = memo.get(id(t))
        if cached is not None:
            return cached
        label, child_types, opaque = _decompose(t)
        children = tuple(self._intern(c, memo) for c in child_types)
        sig = (label,) + tuple(self._find(c) for c in children)
        existing = self._sigtab.get(sig)
        if existing is not None:
            memo[id(t)] = existing
            return existing
        node = self._new_node(label, children)
        self._sigtab[sig] = node
        for child in set(self._find(c) for c in children):
            self._use[child].append(node)
        if opaque is not None:
            self._opaque[node] = opaque
        memo[id(t)] = node
        return node

    # -- merging ------------------------------------------------------------

    def merge(self, a: G.FGType, b: G.FGType) -> None:
        """Assert ``a == b`` and close under congruence."""
        tracer = self._tracer
        if tracer is not None and tracer.enabled:
            with tracer.span("congruence.merge"):
                self._merge(a, b)
        else:
            self._merge(a, b)

    def _merge(self, a: G.FGType, b: G.FGType) -> None:
        metrics = self._metrics
        self._equalities.append((a, b))
        self._reps.clear()
        worklist = [(self.intern(a), self.intern(b))]
        while worklist:
            x, y = worklist.pop()
            rx, ry = self._find(x), self._find(y)
            if rx == ry:
                continue
            if self._uf_rank[rx] > self._uf_rank[ry]:
                rx, ry = ry, rx
            if self._uf_rank[rx] == self._uf_rank[ry]:
                self._uf_rank[ry] += 1
            self._uf_parent[rx] = ry
            self._members[ry].extend(self._members.pop(rx))
            if metrics is not None:
                metrics.inc("congruence.unions")
                metrics.observe(
                    "congruence.class_size", len(self._members[ry])
                )
            # Re-signature every parent of the absorbed class; congruent
            # parents found in the signature table join the worklist.
            moved = self._use.pop(rx)
            for parent in moved:
                sig = (self._labels[parent],) + tuple(
                    self._find(c) for c in self._children[parent]
                )
                other = self._sigtab.get(sig)
                if other is not None and self._find(other) != self._find(parent):
                    worklist.append((parent, other))
                else:
                    self._sigtab[sig] = parent
            self._use[ry].extend(moved)

    def equal(self, a: G.FGType, b: G.FGType) -> bool:
        """Decide ``Gamma |- a = b`` under the merged equalities."""
        return self._find(self.intern(a)) == self._find(self.intern(b))

    def class_contains_error(self, t: G.FGType) -> bool:
        """True when ``t``'s equivalence class holds a recovery poison.

        Used by the checker so a type merged with :data:`~repro.fg.ast.ERROR`
        (e.g. a recovered type alias) absorbs comparison exactly like a
        syntactic poison would.
        """
        root = self._find(self.intern(t))
        return any(self._labels[n] == ("error",) for n in self._members[root])

    # -- representative extraction ------------------------------------------

    def representative(self, t: G.FGType) -> G.FGType:
        """The canonical representative of ``t``'s equivalence class.

        Deterministic: minimal externalization cost, ties broken by node
        creation order.  Raises :class:`TypeError_` if the class is only
        expressible cyclically (e.g. after merging ``t`` with ``list t``).

        Each class's result is computed once and kept until the next merge.
        That is sound because a class changes only in a merge: interning
        after a merge only adds singleton classes.
        """
        root = self._find(self.intern(t))
        rep = self._reps.get(root)
        if rep is None:
            rep = self._externalize(root, {})
            if rep is None:
                raise TypeError_(f"cyclic type equality involving {t}")
            self._reps[root] = rep
        return rep

    def _externalize(
        self, root: int, in_progress: Dict[int, bool]
    ) -> Optional[G.FGType]:
        result = self._extract(root, in_progress)
        return result[1] if result is not None else None

    def _extract(self, root: int, in_progress: Dict[int, bool]):
        """Best (cost, type) for a class root, or ``None`` on a cycle."""
        if in_progress.get(root):
            return None
        in_progress[root] = True
        best = None
        for node in sorted(self._members[root]):
            entry = self._extract_node(node, in_progress)
            if entry is None:
                continue
            if best is None or entry[0] < best[0]:
                best = entry
        in_progress[root] = False
        return best

    def _extract_node(self, node: int, in_progress: Dict[int, bool]):
        label = self._labels[node]
        kind = label[0]
        child_results = []
        cost = _label_cost(kind)
        for child in self._children[node]:
            sub = self._extract(self._find(child), in_progress)
            if sub is None:
                return None
            cost += sub[0]
            child_results.append(sub[1])
        if cost >= _COST_INFINITE:
            return None
        return (cost, _recompose(label, child_results, self._opaque.get(node)))

    @property
    def equalities(self) -> Tuple[Tuple[G.FGType, G.FGType], ...]:
        """The equalities asserted so far, in order."""
        return tuple(self._equalities)


def _label_cost(kind: str) -> float:
    if kind == "assoc":
        return _COST_ASSOC
    if kind == "var":
        return _COST_VAR
    return _COST_GROUND


def _decompose(t: G.FGType):
    """Split a type into (label, child types, opaque payload)."""
    if isinstance(t, G.TVar):
        return (("var", t.name), (), None)
    if isinstance(t, G.TBase):
        return (("base", t.name), (), None)
    if isinstance(t, G.TList):
        return (("list",), (t.elem,), None)
    if isinstance(t, G.TFn):
        return (("fn", len(t.params)), tuple(t.params) + (t.result,), None)
    if isinstance(t, G.TTuple):
        return (("tuple", len(t.items)), tuple(t.items), None)
    if isinstance(t, G.TAssoc):
        return (("assoc", t.concept, t.member, len(t.args)), tuple(t.args), None)
    if isinstance(t, G.TForall):
        return (("forall", _canonical_forall(t)), (), t)
    if isinstance(t, G.ConceptReq):
        return (("req", t.concept, len(t.args)), tuple(t.args), None)
    if isinstance(t, G.ErrorType):
        # The recovery poison is an opaque constant to the solver; the
        # checker's ``equal`` short-circuits before asking about it, this
        # case only keeps stray poisons from crashing the closure.
        return (("error",), (), None)
    raise AssertionError(f"unknown F_G type node: {t!r}")


def _recompose(label: tuple, children: List[G.FGType], opaque) -> G.FGType:
    kind = label[0]
    if kind == "var":
        return G.TVar(label[1])
    if kind == "base":
        return G.TBase(label[1])
    if kind == "list":
        return G.TList(children[0])
    if kind == "fn":
        return G.TFn(tuple(children[:-1]), children[-1])
    if kind == "tuple":
        return G.TTuple(tuple(children))
    if kind == "assoc":
        return G.TAssoc(label[1], tuple(children), label[2])
    if kind == "forall":
        assert opaque is not None
        return opaque
    if kind == "req":
        return G.ConceptReq(label[1], tuple(children))
    if kind == "error":
        return G.ERROR
    raise AssertionError(f"unknown label: {label!r}")


def _canonical_forall(t: G.TForall) -> str:
    """An alpha-canonical string for a forall type (de Bruijn binder names)."""
    renaming = {v: G.TVar(f"@{i}") for i, v in enumerate(t.vars)}
    body = G.substitute(t.body, renaming)
    reqs = tuple(G.substitute(r, renaming) for r in t.requirements)
    sames = tuple(
        G.SameType(G.substitute(s.left, renaming), G.substitute(s.right, renaming))
        for s in t.same_types
    )
    canon = G.TForall(tuple(f"@{i}" for i in range(len(t.vars))), reqs, sames, body)
    return str(canon)


def solver_for_equalities(
    equalities, max_nodes: Optional[int] = None, *,
    metrics=None, tracer=None,
) -> CongruenceSolver:
    """Build a solver containing every equality in ``equalities``."""
    solver = CongruenceSolver(max_nodes, metrics=metrics, tracer=tracer)
    if metrics is not None:
        metrics.inc("congruence.solvers")
    if tracer is not None and tracer.enabled:
        with tracer.span("congruence.build", equalities=len(tuple(equalities))):
            for left, right in equalities:
                solver.merge(left, right)
        return solver
    for left, right in equalities:
        solver.merge(left, right)
    return solver
