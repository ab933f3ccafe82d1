"""Child entry point for persistent pool workers.

Spawned by :mod:`repro.service.pool` as ``python -m repro.service.subproc
--serve --task-fd N --result-fd M``: the worker warms up once — imports
the whole pipeline and checks the prelude once for the process, so prelude
tasks check only their own program — then loops over framed tasks on a
dedicated task pipe, writing framed results and periodic heartbeats to a
dedicated result pipe.  Before anything else it shields fd 1
(:func:`repro.service.proto.shield_stdout`), so a stray ``print`` from
checked code or the pipeline lands on stderr, never on a pipe.  A
heartbeat thread keeps ticking while a task runs, so the supervisor can
tell "busy" from "wedged".  Exceptions inside a task are contained *by the
worker* (a structured ``"crash"`` result; the worker survives for the next
task); only process-killing faults — ``os._exit``, SIGKILL, C-level
crashes — take the worker down, and those are the supervisor's business
(the ``worker-lost`` fault kind).

The task payload carries the chaos faults to replay — declarative
:class:`~repro.service.faults.FaultSpec` entries plus serialized ambient
exceptions — because the parent's thread-local fault table does not cross
the process boundary by itself.  The pipeline contract is unchanged inside
the wall: diagnosed programs produce a ``"diagnostics"`` result, not a
crash.
"""

from __future__ import annotations

import os
import sys
import threading
import time


def run_task(payload: dict) -> dict:
    """Execute one check task; always returns a result dict, never raises.

    Builds the limits and fault table from the payload, runs
    :func:`~repro.pipeline.check_source` under them, and projects the
    outcome (or the contained crash) to the JSON-ready result shape.
    """
    from repro.diagnostics.limits import Limits
    from repro.pipeline import check_source, install_faults
    from repro.service.faults import FaultSpec, deserialize_exception_faults
    from repro.service.worker import (
        build_task_instrumentation,
        crash_report_from_exception,
        outcome_projection,
        telemetry_result,
    )

    limits_data = payload.get("limits")
    limits = Limits(**limits_data) if limits_data is not None else None
    faults = deserialize_exception_faults(
        payload.get("exception_faults", ())
    )
    hang_s = payload.get("hang_s", 0.5)
    for spec_data in payload.get("fault_specs", ()):
        spec = FaultSpec.from_json(spec_data)
        faults[spec.stage] = spec.materialize(hang_s, in_subprocess=True)

    # A telemetry stanza in the task frame turns on *real* per-task
    # instrumentation inside the worker; the result ships what it saw back
    # across the process boundary (wire spans + the local clock bracket
    # for offset normalization).  Absent stanza → zero overhead.
    instrumentation = build_task_instrumentation(payload.get("telemetry"))

    start = time.perf_counter()
    start_ns = time.perf_counter_ns()
    try:
        with install_faults(faults):
            outcome = check_source(
                payload["text"],
                payload.get("filename", "<input>"),
                prelude=payload.get("prelude", False),
                ext=payload.get("ext", False),
                max_errors=payload.get("max_errors", 20),
                limits=limits,
                verify=payload.get("verify", False),
                evaluate=payload.get("evaluate", False),
                instrumentation=instrumentation,
            )
    except BaseException as exc:  # noqa: BLE001 — the containment wall
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
            # Deliberate kills must stay process-killing (the "kill" chaos
            # kind and real signals), not be flattened into a result.
            raise
        crash = crash_report_from_exception(exc)
        return {
            # A MemoryError under the per-worker rlimit is the governor's
            # own fault kind: contained, transient, retried on a fresh
            # worker with a clean heap.
            "status": (
                "memory" if isinstance(exc, MemoryError) else "crash"
            ),
            "diagnostics": [],
            "severities": {},
            "rendered": "",
            "crash": crash.to_json(),
            "duration_ms": round((time.perf_counter() - start) * 1e3, 3),
            "telemetry": telemetry_result(
                instrumentation, start_ns, time.perf_counter_ns(),
            ),
        }
    status, diagnostics, severities, rendered = outcome_projection(outcome)
    return {
        "status": status,
        "diagnostics": diagnostics,
        "severities": severities,
        "rendered": rendered,
        "crash": None,
        "duration_ms": round((time.perf_counter() - start) * 1e3, 3),
        "telemetry": telemetry_result(
            instrumentation, start_ns, time.perf_counter_ns(),
        ),
    }


def warm_up(prelude: bool, ext: bool) -> float:
    """Import the pipeline and check a trivial program with the worker's
    ``prelude``/``ext`` flags.

    Run once at worker spawn so every later attempt starts warm: module
    imports, the parser tables, and — with ``prelude=True`` — the prelude,
    which that first check checks once for the process
    (:func:`repro.prelude.checked.checked_prelude`) for the worker's
    checker; every prelude task then checks only its own program.  Returns
    the wall time in ms; never raises (a failing warm-up just means cold
    attempts).
    """
    start = time.perf_counter()
    try:
        from repro.pipeline import check_source

        check_source("iadd(1, 2)", "<warmup>", prelude=prelude, ext=ext)
    except Exception:  # noqa: BLE001 — warm-up is best-effort
        pass
    return round((time.perf_counter() - start) * 1e3, 3)


def serve(task_fd: int, result_fd: int, heartbeat_ms: float,
          max_mem_mb=None) -> int:
    """Loop over framed tasks until shutdown or EOF."""
    from repro.observability import flightrec
    from repro.service import proto
    from repro.service.resources import apply_memory_limit, sample_rss_bytes

    flightrec.arm()  # bundle directory (if any) comes from $FG_CRASH_DIR
    proto.shield_stdout()  # stray stdout writes can never reach a pipe
    apply_memory_limit(max_mem_mb)
    write_lock = threading.Lock()
    stop = threading.Event()

    def send(message: dict) -> None:
        with write_lock:
            proto.write_frame_fd(result_fd, message)

    def heartbeat() -> None:
        while not stop.wait(heartbeat_ms / 1000.0):
            message = {"type": "heartbeat", "pid": os.getpid()}
            # Self-sampled RSS rides every heartbeat so the supervisor
            # can recycle bloated workers without touching /proc itself.
            rss = sample_rss_bytes()
            if rss is not None:
                message["rss_bytes"] = rss
            try:
                send(message)
            except OSError:
                return

    threading.Thread(
        target=heartbeat, daemon=True, name="fg-pool-heartbeat"
    ).start()

    try:
        while True:
            frame = proto.read_frame_fd(task_fd)
            if frame is None:
                flightrec.disarm()
                return 0  # supervisor closed the task pipe
            kind = frame.get("type")
            if kind == "init":
                warm_ms = warm_up(
                    frame.get("prelude", False), frame.get("ext", False)
                )
                send({
                    "type": "hello",
                    "pid": os.getpid(),
                    "warm_ms": warm_ms,
                })
            elif kind == "task":
                result = run_task(frame)
                result["type"] = "result"
                result["id"] = frame.get("id")
                result["attempt"] = frame.get("attempt")
                send(result)
            elif kind == "shutdown":
                flightrec.disarm()
                return 0
            # Unknown frame types are ignored: forward compatibility.
    except (OSError, proto.FrameError):
        # A dead supervisor (broken pipes) is a clean exit, not a crash.
        flightrec.disarm()
        return 0
    finally:
        stop.set()


def _parse_serve_args(argv) -> dict:
    options = {"heartbeat_ms": 100.0, "max_mem_mb": None}
    it = iter(argv)
    for arg in it:
        if arg == "--task-fd":
            options["task_fd"] = int(next(it))
        elif arg == "--result-fd":
            options["result_fd"] = int(next(it))
        elif arg == "--heartbeat-ms":
            options["heartbeat_ms"] = float(next(it))
        elif arg == "--max-mem-mb":
            options["max_mem_mb"] = float(next(it))
        else:
            raise SystemExit(f"subproc --serve: unknown argument {arg!r}")
    if "task_fd" not in options or "result_fd" not in options:
        raise SystemExit("subproc --serve: --task-fd and --result-fd "
                         "are required")
    return options


if __name__ == "__main__":
    opts = _parse_serve_args([a for a in sys.argv[1:] if a != "--serve"])
    sys.exit(serve(
        opts["task_fd"], opts["result_fd"], opts["heartbeat_ms"],
        max_mem_mb=opts["max_mem_mb"],
    ))
