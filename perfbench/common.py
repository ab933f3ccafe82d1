"""Shared pieces of the benchmark: locating the program, statistics,
known-answer judging, open-loop schedules and the span recorder."""

from __future__ import annotations

import json
import os
import random
import sys
import time
from typing import Dict, List, Optional, Sequence

#: Root of the checkout the benchmark runs in (the parent of perfbench/).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch output of runs (spans, daemon sockets and journals); ignored.
OUT = os.path.join(ROOT, "perfbench", "out")


def require_program() -> None:
    """Put the checkout's ``src`` on the import path, or exit 2.

    Without the program there is nothing to measure, so the benchmark
    must fail before it prints a result.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "pipeline.py")):
        print(f"perfbench: no program under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> Dict[str, str]:
    """Environment for processes that import the program."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    return env


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile, ``q`` in [0, 1]; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def arrivals(seed: int, rate: float, seconds: float,
             tag: str) -> List[float]:
    """Seeded open-loop schedule: one arrival per ``1/rate`` slot, placed
    uniformly at random inside its slot (steady independent users)."""
    rng = random.Random(f"arrivals:{tag}:{seed}:{rate}")
    slot = 1.0 / rate
    out: List[float] = []
    k = 0
    while True:
        due = (k + rng.random()) * slot
        if due >= seconds:
            return out
        out.append(due)
        k += 1


def open_loop_latencies(service_s: Sequence[float],
                        due_s: Sequence[float]) -> List[float]:
    """Latency of each arrival, from its due time, when one thread serves
    the arrivals in order with the given service times (Lindley's
    recursion: a request starts when it is due or when the previous one
    finishes, whichever is later)."""
    out: List[float] = []
    free = 0.0
    for due, service in zip(due_s, service_s):
        start = max(due, free)
        free = start + service
        out.append(free - due)
    return out


def judge(program, ok: bool, value, diagnostics: List[dict],
          check_value: bool = True):
    """Compare one verdict with the program's known answer.

    Returns ``(correct, line_correct)``; ``line_correct`` is ``None`` for
    accepted programs.  A rejected program is correct when the checker
    rejects it with a diagnostic of the planted kind; whether that
    diagnostic sits at the planted user line is reported apart, because
    line numbers under the prelude are a known defect, not a wrong verdict.
    """
    from gen import ERROR_PATTERNS

    if program.accepted:
        return bool(ok and (not check_value or value == program.value)), None
    pattern = ERROR_PATTERNS[program.error]
    matching = [d for d in diagnostics if pattern in (d.get("message") or "")]
    if ok or not matching:
        return False, False
    return True, any(d.get("line") == program.error_line for d in matching)


class Spans:
    """In-memory span recorder: name, start, end, parent and request id.

    Spans stay in memory while the benchmark runs and are written out once,
    at the end, as JSON lines with times in microseconds from the
    recorder's creation.
    """

    def __init__(self):
        self._t0 = time.perf_counter()
        self.records: List[dict] = []
        self._stack: List[int] = []

    def add(self, name: str, start: float, end: float, request,
            parent: Optional[int]) -> int:
        """Record an already-timed interval (``perf_counter`` seconds)."""
        sid = len(self.records)
        self.records.append({
            "id": sid, "name": name, "parent": parent, "request": request,
            "start_us": round((start - self._t0) * 1e6, 1),
            "end_us": round((end - self._t0) * 1e6, 1),
        })
        return sid

    def call(self, name: str, request, fn, *args, **kwargs):
        """Time ``fn(*args, **kwargs)`` as a span; returns
        ``(result, seconds)``."""
        sid = len(self.records)
        self.records.append(None)  # placeholder keeps ids in call order
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.records[sid] = {
                "id": sid, "name": name, "parent": parent,
                "request": request,
                "start_us": round((start - self._t0) * 1e6, 1),
                "end_us": round((end - self._t0) * 1e6, 1),
            }
        return result, end - start

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.records:
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")
