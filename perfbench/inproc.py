"""In-process workloads: ``repro.pipeline.check_source`` in one thread.

``prelude-small`` checks small programs under the prelude; ``nopre-large``
checks large self-contained programs.  Both run a closed loop: the next
program is checked as soon as the previous verdict is in, and the loop
stops once ``seconds`` of checking have been measured.  Generating a
program, checking its known value against the direct interpreter and
timing the machine-speed reference (``calib.py``) happen between the timed
calls; each check's time is scaled to reference speed.
"""

from __future__ import annotations

import resource
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from common import (
    ROOT, Spans, arrivals, child_env, judge, mean, median,
    open_loop_latencies, quantile,
)
from calib import Gauge
import gen

#: Fixed open-loop rates (programs per second) for ``request_ms``: about
#: 25% (``low``) and 45% (``high``) of each workload's ``capacity_rps``.
WORKLOADS: Dict[str, Dict[str, object]] = {
    "prelude-small": {"family": "small", "prelude": True,
                      "low": 6.0, "high": 11.0},
    "nopre-large": {"family": "large", "prelude": False,
                    "low": 1.8, "high": 3.3},
}

#: Fresh interpreters started per run to time set-up; the median is kept.
SETUP_LAUNCHES = 5

_SETUP_CHILD = r"""
import sys
from repro.pipeline import check_source
check_source(sys.argv[3], "setup.fg", prelude=sys.argv[1] == "1",
             ext=sys.argv[2] == "1", verify=True, evaluate=True)
print("ok", flush=True)
"""


def program(workload: str, seed: int, i: int) -> gen.Program:
    if WORKLOADS[workload]["family"] == "small":
        return gen.small_program(seed, i)
    return gen.large_program(seed, i)


def first_program(workload: str, seed: int) -> gen.Program:
    """The program set-up checks: a large one is held at a mid size (150
    lines), so that set-up time does not swing with the seed."""
    if WORKLOADS[workload]["family"] == "small":
        return gen.small_program(seed, 0)
    return gen.large_program(seed, 0, target=150)


def setup_seconds(workload: str, seed: int, gauge: Gauge) \
        -> Tuple[float, float]:
    """Median time from starting a fresh interpreter, through importing
    the pipeline, to the first completed check: ``(scaled, raw)``."""
    first = first_program(workload, seed)
    prelude = WORKLOADS[workload]["prelude"]
    argv = [sys.executable, "-c", _SETUP_CHILD, "1" if prelude else "0",
            "1" if first.ext else "0", first.text]
    times, raw = [], []
    for _ in range(SETUP_LAUNCHES):
        for _ in range(3):
            gauge.tick()
        start = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.wait(timeout=60)
        if line.strip() != "ok" or proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {line!r}")
        gauge.tick()
        raw.append(elapsed)
        times.append(elapsed * gauge.scale(start, start + elapsed))
    return median(times), median(raw)


class Tally:
    """Attempted/failed counts and planted-error line checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.planted = 0
        self.line_correct = 0

    def record(self, correct: bool, line_ok: Optional[bool],
               refused: bool = False) -> None:
        self.attempted += 1
        if refused or not correct:
            self.failed += 1
        if not refused and not correct:
            self.wrong += 1
        if line_ok is not None:
            self.planted += 1
            self.line_correct += int(line_ok)

    def merge(self, other: "Tally") -> None:
        for name in ("attempted", "failed", "wrong", "planted",
                     "line_correct"):
            setattr(self, name, getattr(self, name) + getattr(other, name))

    @property
    def line_share(self) -> float:
        return self.line_correct / self.planted if self.planted else 0.0


def _diagnostics(report) -> List[dict]:
    from repro.diagnostics.reporter import diagnostic_to_dict

    return [diagnostic_to_dict(d) for d in report.diagnostics]


def warm_up(workload: str, seed: int) -> None:
    """Untimed checks so lazy imports and first-call set-up are done."""
    from repro.pipeline import check_source

    for i in (-1, -2, -3):
        p = program(workload, seed, i)
        check_source(p.text, p.name, prelude=WORKLOADS[workload]["prelude"],
                     ext=p.ext, verify=True, evaluate=True)


def closed_loop(workload: str, seed: int, seconds: float, tally: Tally,
                validator: gen.Validator, gauge: Gauge) \
        -> Tuple[List[float], List[float]]:
    """Check programs 0, 1, ... back to back until ``seconds`` of checking
    are measured; returns the seconds per check, scaled and raw."""
    from repro.pipeline import check_source

    prelude = WORKLOADS[workload]["prelude"]
    warm_up(workload, seed)
    timed: List[Tuple[float, float]] = []  # (start, seconds) per check
    busy = 0.0
    i = 0
    while busy < seconds:
        p = program(workload, seed, i)
        validator.check(p, prelude)
        start = time.perf_counter()
        out = check_source(p.text, p.name, prelude=prelude, ext=p.ext,
                           verify=True, evaluate=True)
        elapsed = time.perf_counter() - start
        correct, line_ok = judge(p, out.ok, out.value,
                                 _diagnostics(out.report))
        tally.record(correct, line_ok)
        gauge.tick()
        timed.append((start, elapsed))
        busy += elapsed
        i += 1
    raw = [e for _, e in timed]
    scaled = [e * gauge.scale(t, t + e) for t, e in timed]
    return scaled, raw


def request_latencies(workload: str, seed: int,
                      service: List[float]) -> Dict[str, List[float]]:
    """Open-loop latency (seconds) at the fixed ``low`` and ``high`` rates.

    In one thread the caller is the server, so a request waits exactly as
    long as the checks ahead of it take: each rate replays the measured
    check times, in order, against a seeded arrival schedule with as many
    arrivals as there are samples.
    """
    out = {}
    for level in ("low", "high"):
        rate = WORKLOADS[workload][level]
        due = arrivals(seed, rate, len(service) / rate, workload)
        out[level] = open_loop_latencies(service, due)
    return out


def run(workload: str, seed: int, seconds: float) -> Dict[str, object]:
    """The untraced run: every end-to-end metric."""
    gauge = Gauge()
    setup, setup_raw = setup_seconds(workload, seed, gauge)
    tally = Tally()
    service, raw = closed_loop(workload, seed, seconds, tally,
                               gen.Validator(), gauge)
    latency = request_latencies(workload, seed, service)
    rate = len(service) / sum(service)
    metrics = {
        "setup_s": (setup, "s"),
        "verdict_ms.p50": (median(service) * 1e3, "ms"),
        "verdict_ms.p90": (quantile(service, 0.9) * 1e3, "ms"),
        "programs_per_s": (rate, "1/s"),
        "request_ms.p50.low": (median(latency["low"]) * 1e3, "ms"),
        "request_ms.p90.low": (quantile(latency["low"], 0.9) * 1e3, "ms"),
        "request_ms.p50.high": (median(latency["high"]) * 1e3, "ms"),
        "request_ms.p90.high": (quantile(latency["high"], 0.9) * 1e3, "ms"),
        # In process a request is one program.
        "capacity_rps": (rate, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    extra = {
        "failed_share": (tally.failed / tally.attempted, "ratio"),
        "diag_line_correct_share": (tally.line_share, "ratio"),
        "samples": (len(service), "count"),
        "raw.setup_s": (setup_raw, "s"),
        "raw.verdict_ms.p50": (median(raw) * 1e3, "ms"),
        "raw.programs_per_s": (len(raw) / sum(raw), "1/s"),
        "reference_ms": (gauge.median_ms(), "ms"),
    }
    return {"metrics": metrics, "extra": extra, "tally": tally}


# -- traced per-layer pass ---------------------------------------------------


class LayerTotals:
    """Per-layer sums over the programs a traced pass covered."""

    def __init__(self):
        self.ms: Dict[str, List[float]] = {}
        self.counters: Dict[str, int] = {}
        self.tokens = 0
        self.lex_s = 0.0
        self.programs = 0
        #: Factor to reference speed for the program being traced.
        self.scale = 1.0
        #: Traced ``check_source`` seconds per program, in pass order.
        self.pipeline_s: List[float] = []

    def add_ms(self, name: str, seconds: float) -> None:
        self.ms.setdefault(name, []).append(seconds * 1e3 * self.scale)

    def count(self, name: str, value: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(value)

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        """Layer times are means per program the layer ran on, so the
        stage means add up to the mean verdict time; counts are means per
        checked program."""
        c = self.counters
        per = max(1, self.programs)

        def ms(name):
            return (mean(self.ms.get(name, [])), "ms")

        attempts = c.get("model_lookup.attempts", 0)
        hits = c.get("congruence.cache_hits", 0)
        lookups = hits + c.get("congruence.solvers", 0)
        return {
            "syntax.lexer.ms": ms("syntax.lexer"),
            "syntax.lexer.tokens_per_s": (
                self.tokens / self.lex_s if self.lex_s else 0.0, "1/s"),
            "syntax.parser_fg.ms": ms("syntax.parser_fg"),
            "prelude.ms": ms("prelude"),
            "fg.typecheck.ms": ms("fg.typecheck"),
            "fg.typecheck.model_lookup.attempts": (attempts / per, "count"),
            "fg.typecheck.model_lookup.candidates_per_attempt": (
                c.get("model_lookup.candidates", 0) / attempts
                if attempts else 0.0, "ratio"),
            "fg.typecheck.instantiations": (
                c.get("typecheck.instantiations", 0) / per, "count"),
            "fg.congruence.nodes": (c.get("congruence.nodes", 0) / per,
                                    "count"),
            "fg.congruence.finds": (c.get("congruence.finds", 0) / per,
                                    "count"),
            "fg.congruence.unions": (c.get("congruence.unions", 0) / per,
                                     "count"),
            "fg.env.congruence_cache_hit_share": (
                hits / lookups if lookups else 0.0, "ratio"),
            "pipeline.verify_recheck_ms": ms("pipeline.verify_recheck"),
            "systemf.typecheck.ms": ms("systemf.typecheck"),
            "systemf.eval.ms": ms("systemf.eval"),
            "systemf.eval.steps": (c.get("eval.steps", 0) / per, "count"),
            "diagnostics.render_ms": ms("diagnostics.render"),
            "pipeline.overhead_ms": ms("pipeline.overhead"),
        }


def trace_program(spans: Spans, totals: LayerTotals, request, p: gen.Program,
                  prelude: bool, ext: bool, scale: float) -> None:
    """Time each layer's public entry point on one program, as spans
    under one root span per program; times recorded in the totals are
    multiplied by ``scale`` (to reference speed)."""
    from repro.diagnostics.limits import Budget, resource_scope
    from repro.diagnostics.reporter import DiagnosticReporter
    from repro.diagnostics.source import SourceText
    from repro.observability import Instrumentation, MetricsRegistry
    from repro.pipeline import check_source
    from repro.prelude import wrap
    from repro.syntax.lexer import tokenize
    from repro.syntax.parser_fg import parse_program_resilient
    from repro.systemf import evaluate, type_of
    if ext:
        from repro.extensions import typecheck_all, verify_translation
    else:
        from repro.fg.typecheck import typecheck_all, verify_translation

    text = wrap(p.text) if prelude else p.text
    totals.scale = scale

    def body():
        inst = Instrumentation(metrics=MetricsRegistry())
        out, t_pipe = spans.call(
            "pipeline.check_source", request, check_source, p.text, p.name,
            prelude=prelude, ext=ext, verify=True, evaluate=True,
            instrumentation=inst,
        )
        totals.pipeline_s.append(t_pipe * scale)
        totals.programs += 1
        timings = out.stats["timings_ms"]
        stages = sum(timings.get(k, 0.0)
                     for k in ("parse", "check", "verify", "evaluate"))
        totals.add_ms("pipeline.overhead", (timings["total"] - stages) / 1e3)
        for name, value in out.stats.get("counters", {}).items():
            totals.count(name, value)
        if prelude:
            _, t_bare = spans.call(
                "prelude.bare_check", request, check_source, p.text, p.name,
                prelude=False, ext=ext, verify=True, evaluate=True,
            )
            totals.add_ms("prelude", t_pipe - t_bare)
        with resource_scope(None):
            tokens, t_lex = spans.call(
                "syntax.lexer.tokenize", request, tokenize,
                SourceText(text, p.name), DiagnosticReporter(),
            )
            (term, parsed), t_parse = spans.call(
                "syntax.parser_fg.parse_program_resilient", request,
                parse_program_resilient, text, p.name,
            )
        totals.tokens += len(tokens)
        totals.lex_s += t_lex * scale
        totals.add_ms("syntax.lexer", t_lex)
        totals.add_ms("syntax.parser_fg", t_parse - t_lex)
        if term is None or not parsed.ok:
            return
        (_, translation, report), t_check = spans.call(
            "fg.typecheck.typecheck_all", request, typecheck_all, term,
        )
        totals.add_ms("fg.typecheck", t_check)
        if not report.ok or translation is None:
            _, t_render = spans.call("diagnostics.render", request,
                                     report.render)
            totals.add_ms("diagnostics.render", t_render)
            return
        _, t_verify = spans.call("fg.typecheck.verify_translation", request,
                                 verify_translation, term)
        with resource_scope(None):
            _, t_sf = spans.call("systemf.typecheck.type_of", request,
                                 type_of, translation)
        totals.add_ms("systemf.typecheck", t_sf)
        totals.add_ms("pipeline.verify_recheck", t_verify - t_sf)
        budget = Budget(None)
        _, t_eval = spans.call("systemf.eval.evaluate", request, evaluate,
                               translation, budget=budget)
        totals.add_ms("systemf.eval", t_eval)

    spans.call("program", request, body)


def run_traced(workload: str, seed: int, seconds: float,
               spans: Spans) -> Dict[str, object]:
    """The traced run: each program is checked untraced, then passed
    through every layer under spans; the difference between the traced and
    the untraced ``check_source`` time of the same programs, taken moments
    apart, is the tracing overhead."""
    from repro.pipeline import check_source

    prelude = WORKLOADS[workload]["prelude"]
    tally = Tally()
    totals = LayerTotals()
    validator = gen.Validator()
    gauge = Gauge()
    untraced: List[float] = []
    warm_up(workload, seed)
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        p = program(workload, seed, i)
        validator.check(p, prelude)
        t0 = time.perf_counter()
        out = check_source(p.text, p.name, prelude=prelude, ext=p.ext,
                           verify=True, evaluate=True)
        elapsed = time.perf_counter() - t0
        tally.record(*judge(p, out.ok, out.value, _diagnostics(out.report)))
        gauge.tick()
        scale = gauge.scale(t0, t0)
        untraced.append(elapsed * scale)
        trace_program(spans, totals, i, p, prelude, p.ext, scale)
        i += 1
    traced = totals.pipeline_s
    low = WORKLOADS[workload]["low"]
    metrics = totals.metrics()
    metrics["diag_line_correct_share"] = (tally.line_share, "ratio")
    metrics["trace.overhead.verdict_ms.p50"] = (
        (median(traced) - median(untraced)) * 1e3, "ms")
    lat = []
    for service in (untraced, traced):
        due = arrivals(seed, low, len(service) / low, workload)
        lat.append(median(open_loop_latencies(service, due)))
    metrics["trace.overhead.request_ms.p50.low"] = (
        (lat[1] - lat[0]) * 1e3, "ms")
    return {"metrics": metrics, "tally": tally}
