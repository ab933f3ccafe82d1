"""Machine-speed gauge: a fixed reference computation timed during a run.

The hosts this benchmark runs on change speed by 20-40% over tens of
seconds (shared cores), which is far more than the changes the benchmark
has to resolve.  So every run also times :func:`reference`, a fixed piece
of pure-Python work of the checker's kind (tokenize, parse into frozen
dataclasses, walk the tree), which shares no code with the program under
test.  Each measured time is then scaled by ``REFERENCE_MS / reference
time at that moment``: the time the work would have taken on a machine
that runs the reference in ``REFERENCE_MS``.  The raw times are printed
next to the scaled ones.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import List, Tuple

#: Nominal reference time; scaled times are "ms on a machine that runs the
#: reference in this long" (about a 2-core x86-64 VM's typical figure).
REFERENCE_MS = 3.0


@dataclass(frozen=True)
class _Num:
    v: int


@dataclass(frozen=True)
class _Add:
    left: object
    right: object


@dataclass(frozen=True)
class _Let:
    name: str
    bound: object
    body: object


@dataclass(frozen=True)
class _Var:
    name: str


_TEXT = " ".join(f"let x{i} = add ( {i} , x{i - 1} ) in"
                 for i in range(1, 400)) + " x399"


def _bound(toks: List[str], pos: int):
    """Parse ``add ( atom , atom )`` or an atom at ``pos``."""
    t = toks[pos]
    if t == "add":
        left, pos = _bound(toks, pos + 2)
        right, pos = _bound(toks, pos + 1)
        return _Add(left, right), pos + 1
    return (_Num(int(t)) if t.isdigit() else _Var(t)), pos + 1


def reference() -> int:
    """Tokenize, parse and evaluate a fixed toy program of 400 bindings."""
    toks = []
    i, n = 0, len(_TEXT)
    while i < n:
        if _TEXT[i].isspace():
            i += 1
            continue
        j = i
        while j < n and not _TEXT[j].isspace():
            j += 1
        toks.append(_TEXT[i:j])
        i = j
    pos = 0
    lets = []
    while toks[pos] == "let":
        name = toks[pos + 1]
        bound, pos = _bound(toks, pos + 3)
        lets.append((name, bound))
        pos += 1  # past "in"
    tree = _Var(toks[pos])
    for name, bound in reversed(lets):
        tree = _Let(name, bound, tree)
    total = 0
    for _ in range(6):
        env = {"x0": 0}
        node = tree
        while isinstance(node, _Let):
            b = node.bound
            left = b.left.v if isinstance(b.left, _Num) else env[b.left.name]
            right = (b.right.v if isinstance(b.right, _Num)
                     else env[b.right.name])
            env[node.name] = left + right
            node = node.body
        total += env[node.name]
    return total


class Gauge:
    """Reference timings with the moment each was taken."""

    def __init__(self):
        self.samples: List[Tuple[float, float]] = []  # (perf_counter, s)
        for _ in range(5):
            reference()

    def tick(self, times: int = 1) -> None:
        for _ in range(times):
            start = time.perf_counter()
            reference()
            end = time.perf_counter()
            self.samples.append((end, end - start))

    def tick_each_cpu(self, times: int) -> None:
        """Tick ``times`` on every CPU this thread may use, pinned to each
        in turn, for runs whose work spreads over all CPUs (CPUs of one
        host can run at different speeds at the same moment)."""
        cpus = sorted(os.sched_getaffinity(0))
        try:
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                self.tick(times)
        finally:
            os.sched_setaffinity(0, cpus)

    def scale(self, t0: float, t1: float) -> float:
        """``REFERENCE_MS`` over the median reference time around
        ``[t0, t1]``: within a second of it, or else the 7 nearest."""
        near = [s for t, s in self.samples if t0 - 1.0 <= t <= t1 + 1.0]
        if len(near) < 3:
            mid = (t0 + t1) / 2
            near = [s for _, s in sorted(
                self.samples, key=lambda x: abs(x[0] - mid))[:7]]
        near.sort()
        return REFERENCE_MS / 1e3 / near[len(near) // 2]

    def median_ms(self) -> float:
        values = sorted(s for _, s in self.samples)
        return values[len(values) // 2] * 1e3
