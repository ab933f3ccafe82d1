"""``repro.observability``: zero-dependency tracing, metrics, and explain.

The black-box problem: lexically scoped model lookup, where-clause
dictionary threading, and the congruence-closure equality procedure decide
everything interesting about an F_G program, yet a failure surfaces as one
diagnostic and a slow check surfaces as nothing at all.  This package makes
the machinery observable without touching its semantics:

- :class:`Tracer` / :class:`Span` — hierarchical, ``perf_counter_ns``-timed
  spans over every pipeline stage and the checker's fine-grained work, with
  :mod:`exporters <repro.observability.exporters>` to human text, Chrome
  ``trace_event`` JSON, and JSONL;
- :class:`MetricsRegistry` — deterministic counters/histograms (model-lookup
  attempts, congruence union/find counts, fuel, diagnostics by severity)
  snapshotted into ``CheckOutcome.stats`` and the CLI ``--json`` envelope;
- :class:`ExplainLog` — a structured decision log of every model
  resolution: candidates per scope, rejection reasons, same-type
  constraints consulted (``fg check --explain``, REPL ``:explain``);
- :func:`profile_tracer` / :class:`Profile` — the deterministic hot-path
  profiler: the (unsampled) span stream folded into an inclusive/exclusive
  time-per-callsite table with call counts (``fg profile``, ``--profile``,
  REPL ``:profile``);
- :class:`MemoryAccountant` — per-pipeline-stage peak-memory accounting
  via ``tracemalloc``;
- :mod:`regress <repro.observability.regress>` — the versioned
  ``BenchRecord`` run-record schema and the ``fg bench --compare``
  trajectory gate;
- :class:`Instrumentation` — the bundle the pipeline threads through the
  stack, with :data:`NULL_INSTRUMENTATION` as the near-free disabled
  default (null-object pattern; see docs/OBSERVABILITY.md);
- :mod:`flightrec <repro.observability.flightrec>` — the always-on
  bounded flight recorder and ``repro/crash-bundle v1`` crash forensics
  (``fg doctor``, ``fg debug bundle``; see docs/DIAGNOSTICS.md).

Everything here is standard library only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

# flightrec sits below tracer/metrics/telemetry in the import graph (they
# call its record hooks), so it must be initialized first.
from repro.observability.flightrec import (
    CRASH_BUNDLE_SCHEMA,
    FlightRecorder,
    NullFlightRecorder,
    build_bundle,
    flight_recorder,
    read_bundle,
    validate_bundle,
    write_bundle,
)
from repro.observability.explain import ExplainLog, format_span
from repro.observability.exporters import (
    chrome_trace,
    chrome_trace_json,
    prometheus_text,
    render_tree,
    spans_from_jsonl,
    to_jsonl,
)
from repro.observability.telemetry import (
    OpsLog,
    ServerTelemetry,
    WindowReservoir,
    clock_offset_ns,
    graft_spans,
    merge_worker_telemetry,
    read_ops_log,
    spans_to_wire,
)
from repro.observability.metrics import Histogram, MetricsRegistry
from repro.observability.profiler import (
    HotSpot,
    MemoryAccountant,
    Profile,
    format_profile,
    profile_tracer,
)
from repro.observability.tracer import NULL_TRACER, NullTracer, Span, Tracer


@dataclass(frozen=True)
class Instrumentation:
    """The observability bundle one pipeline run threads through the stack.

    ``tracer`` is never ``None`` (use :data:`NULL_TRACER` when disabled) so
    call sites can write ``with instr.tracer.span(...)`` unconditionally at
    moderate frequency; ``metrics`` and ``explain`` are ``None`` when
    disabled and every write site guards on that (the hot-path discipline).
    """

    tracer: object = NULL_TRACER
    metrics: Optional[MetricsRegistry] = None
    explain: Optional[ExplainLog] = None
    #: Per-stage peak-memory accounting; ``None`` (the default) never
    #: touches ``tracemalloc``.
    memory: Optional[MemoryAccountant] = None

    @classmethod
    def enabled(cls, *, trace: bool = False, metrics: bool = True,
                explain: bool = False,
                memory: bool = False) -> "Instrumentation":
        """A live bundle with the requested parts turned on."""
        return cls(
            tracer=Tracer() if trace else NULL_TRACER,
            metrics=MetricsRegistry() if metrics else None,
            explain=ExplainLog() if explain else None,
            memory=MemoryAccountant() if memory else None,
        )


#: The shared all-off bundle (the default everywhere).
NULL_INSTRUMENTATION = Instrumentation()


__all__ = [
    "CRASH_BUNDLE_SCHEMA",
    "ExplainLog",
    "FlightRecorder",
    "Histogram",
    "HotSpot",
    "Instrumentation",
    "MemoryAccountant",
    "MetricsRegistry",
    "NULL_INSTRUMENTATION",
    "NULL_TRACER",
    "NullFlightRecorder",
    "NullTracer",
    "OpsLog",
    "Profile",
    "ServerTelemetry",
    "Span",
    "Tracer",
    "WindowReservoir",
    "build_bundle",
    "chrome_trace",
    "chrome_trace_json",
    "clock_offset_ns",
    "flight_recorder",
    "format_profile",
    "format_span",
    "graft_spans",
    "merge_worker_telemetry",
    "profile_tracer",
    "prometheus_text",
    "read_bundle",
    "read_ops_log",
    "render_tree",
    "spans_from_jsonl",
    "spans_to_wire",
    "to_jsonl",
    "validate_bundle",
    "write_bundle",
]
