"""Benchmark fixtures, and the one writer of bench records.

After a benchmark session, :func:`pytest_sessionfinish` writes a versioned
bench record (``BENCH_<tag>.json``, tag from ``$BENCH_TAG`` or today's
date) at the repo root via :mod:`repro.observability.regress`.  The record
holds per-benchmark wall-time statistics (from pytest-benchmark, when it
ran), the daemon telemetry rows (``serve.warm_request`` traced vs.
untraced plus ``serve.stats_request``, timed against a live pool-backed
daemon), the flight-recorder overhead rows, plus two observed
``check_source`` runs of the Figure 5 program: the first, with the memory
accountant off, gives the metrics snapshot (what the pipeline *did* and
its stage timings) and the profile (where the time went); the second,
with the accountant's tracemalloc on, gives only the peak bytes per stage,
so its overhead never inflates a timing.  ``fg bench --compare OLD NEW``
turns two such records into a regression verdict (the CI perf gate).

Recursion headroom is scoped (``resource_scope``), never a module-level
``sys.setrecursionlimit`` — PR 1 removed every permanent limit bump.
"""

import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _recursion_headroom():
    """Scoped stack headroom for deep-input benchmarks (512-element cons
    chains recurse through the parser); restored after every test."""
    from repro.diagnostics.limits import scoped_recursion_limit

    with scoped_recursion_limit(50_000):
        yield


@pytest.fixture(scope="session")
def prelude_source():
    from repro.prelude import PRELUDE

    return PRELUDE


def _benchmark_rows(session):
    """Per-benchmark wall-time stats, defensively extracted."""
    rows = []
    bench_session = getattr(session.config, "_benchmarksession", None)
    for bench in getattr(bench_session, "benchmarks", ()) or ():
        try:
            stats = bench.stats
            rows.append({
                "name": bench.name,
                "group": bench.group,
                "rounds": stats.rounds,
                "mean_s": stats.mean,
                "median_s": stats.median,
                "stddev_s": stats.stddev,
                "min_s": stats.min,
                "max_s": stats.max,
            })
        except Exception:  # noqa: BLE001 — stats shape varies by plugin
            continue
    return rows


def _observed_run(memory):
    """One observed Figure 5 check, evaluated and verified; returns the
    outcome and the instrumentation it ran under."""
    from repro.diagnostics.limits import resource_scope
    from repro.observability import (
        ExplainLog, Instrumentation, MetricsRegistry, Tracer,
    )
    from repro.pipeline import check_source

    from bench_fig5_accumulate import figure5

    inst = Instrumentation(
        tracer=Tracer(), metrics=MetricsRegistry(), explain=ExplainLog(),
        memory=memory,
    )
    # Scoped recursion headroom for the deep cons chain (no process-wide
    # setrecursionlimit side effect).
    with resource_scope():
        outcome = check_source(
            figure5(64), evaluate=True, verify=True, instrumentation=inst
        )
    return outcome, inst


def _instrumented_snapshot():
    """Metrics and profile from a pass without the memory accountant,
    peak memory per stage from a second pass with it."""
    from repro.observability import MemoryAccountant, profile_tracer

    outcome, inst = _observed_run(memory=None)
    _, accounted = _observed_run(memory=MemoryAccountant())
    return {
        "ok": outcome.ok,
        "metrics": outcome.stats,
        "profile": profile_tracer(inst.tracer).to_json(),
        "memory_peak_kb": accounted.memory.peaks_kb(),
        "spans": len(inst.tracer),
        "model_resolutions": len(outcome.explain),
    }


def _serve_rows():
    """Daemon telemetry rows (``serve.warm_request`` traced vs. untraced,
    ``serve.stats_request``) so the committed record prices the daemon
    and its observability surface alongside the pytest-benchmark rows."""
    from repro.observability.regress import serve_benchmark_rows

    try:
        return serve_benchmark_rows(rounds=3)
    except Exception as err:  # noqa: BLE001 — sandboxes without AF_UNIX
        print(f"benchmarks/conftest: serve rows skipped: {err}",
              file=sys.stderr)
        return []


def _flightrec_rows():
    """``flightrec.overhead`` vs ``flightrec.baseline_ring0``: the
    always-on flight recorder priced against a ring-0 baseline, pinned
    by the same perf gate as every other row."""
    from repro.observability.regress import flightrec_benchmark_rows

    try:
        return flightrec_benchmark_rows(rounds=5)
    except Exception as err:  # noqa: BLE001 — never fail the session
        print(f"benchmarks/conftest: flightrec rows skipped: {err}",
              file=sys.stderr)
        return []


def pytest_sessionfinish(session, exitstatus):
    from repro.observability.regress import (
        build_record, default_tag, record_path, write_record,
    )

    tag = default_tag()
    try:
        snapshot = _instrumented_snapshot()
        record = build_record(
            tag,
            _benchmark_rows(session) + _serve_rows() + _flightrec_rows(),
            metrics=snapshot["metrics"],
            profile=snapshot["profile"],
            memory_peak_kb=snapshot["memory_peak_kb"],
            extra={
                "instrumented_run": {
                    "program": "figure5(n=64)",
                    "ok": snapshot["ok"],
                    "spans": snapshot["spans"],
                    "model_resolutions": snapshot["model_resolutions"],
                },
            },
        )
        write_record(record, record_path(tag, _ROOT))
    except Exception as err:  # noqa: BLE001 — never fail the session
        print(
            f"benchmarks/conftest: could not write BENCH_{tag}.json: {err}",
            file=sys.stderr,
        )
