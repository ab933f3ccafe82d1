"""Crash bundles end to end: real faults produce schema-valid forensics.

Each test arms a temporary crash directory, drives a real fault through
the batch/pool/daemon stack — SIGKILLed workers, deadline kills,
contained crashes, a live daemon's debug request and blackbox — and
checks the resulting ``repro/crash-bundle v1`` names the fault and holds
the dead process's last recorded activity.
"""

import json
import os
import tempfile
import threading
import time

import pytest

from repro.observability import (
    Instrumentation,
    MetricsRegistry,
    Tracer,
    flightrec,
)
from repro.service import (
    BatchPolicy,
    FaultSchedule,
    FaultSpec,
    RetryPolicy,
    ServeOptions,
    Server,
    WorkerKillSpec,
    check_batch,
    debug_bundle,
    events,
    health,
    request_shutdown,
)

GOOD = "let id = \\x : int. x in id(41)"


@pytest.fixture
def crash_dir(tmp_path):
    """A configured bundle directory, unconfigured again afterwards."""
    target = tmp_path / "crash"
    flightrec.configure(str(target))
    try:
        yield str(target)
    finally:
        flightrec.configure(None)


def _bundles_by_kind(directory):
    by_kind = {}
    for path in flightrec.find_bundles(directory):
        bundle = flightrec.read_bundle(path)
        by_kind.setdefault(bundle["fault"]["kind"], []).append(bundle)
    return by_kind


class TestPoolBundles:
    def test_worker_kill_dumps_schema_valid_bundle(self, crash_dir):
        # The worker completes file 0, then dies at the dispatch of
        # file 1.
        schedule = FaultSchedule(kills=(WorkerKillSpec(index=1),))
        policy = BatchPolicy(isolate="pool", pool_workers=1)
        report = check_batch(
            [("a.fg", GOOD), ("b.fg", GOOD)], policy,
            fault_schedule=schedule,
        )
        assert report.files[0].ok
        by_kind = _bundles_by_kind(crash_dir)
        assert "worker-lost" in by_kind
        bundle = by_kind["worker-lost"][0]
        assert flightrec.validate_bundle(bundle) == []
        assert bundle["fault"]["detail"]["file"] == "b.fg"
        assert bundle["pool"] is not None
        # The supervisor's record of the dead worker's completed attempt,
        # tagged with the worker pid.  The ring is process-global recent
        # history, so earlier pool runs in the same process may contribute
        # older attempt spans too — the span from *this* run must be
        # among them.
        spans = bundle["rings"]["spans"]
        worker_files = [
            (s.get("attrs") or {}).get("file")
            for s in spans
            if s["name"] == "pool.attempt"
            and (s.get("attrs") or {}).get("pid")
        ]
        assert "a.fg" in worker_files, spans

    def test_deadline_kill_dumps_bundle(self, crash_dir):
        schedule = FaultSchedule(
            specs=(FaultSpec(index=0, stage="check", kind="hang"),),
            hang_s=2.0,
        )
        policy = BatchPolicy(
            isolate="pool", pool_workers=1, deadline_ms=200.0,
        )
        report = check_batch([("hang.fg", GOOD)], policy,
                             fault_schedule=schedule)
        assert report.files[0].status == "timeout"
        by_kind = _bundles_by_kind(crash_dir)
        assert "deadline-kill" in by_kind
        bundle = by_kind["deadline-kill"][0]
        assert flightrec.validate_bundle(bundle) == []
        assert bundle["fault"]["detail"]["file"] == "hang.fg"
        assert bundle["fault"]["detail"]["deadline_ms"] == 200.0

    def test_contained_crash_dumps_crash_report_bundle(self, crash_dir):
        schedule = FaultSchedule(
            specs=(FaultSpec(index=0, stage="check", kind="crash"),),
        )
        policy = BatchPolicy(isolate="pool", pool_workers=1)
        report = check_batch([("boom.fg", GOOD)], policy,
                             fault_schedule=schedule)
        assert report.files[0].crash is not None
        by_kind = _bundles_by_kind(crash_dir)
        assert "crash-report" in by_kind
        bundle = by_kind["crash-report"][0]
        assert flightrec.validate_bundle(bundle) == []
        assert bundle["fault"]["detail"]["files"] == ["boom.fg"]
        assert bundle["policy"]["isolate"] == "pool"

    def test_no_crash_dir_means_no_dump_and_no_failure(self, tmp_path,
                                                       monkeypatch):
        monkeypatch.delenv(flightrec.ENV_CRASH_DIR, raising=False)
        flightrec.configure(None)
        schedule = FaultSchedule(kills=(WorkerKillSpec(index=0),))
        policy = BatchPolicy(isolate="pool", pool_workers=1)
        report = check_batch([("a.fg", GOOD)], policy,
                             fault_schedule=schedule)
        assert report.files[0].crash is not None
        assert list(tmp_path.iterdir()) == []


@pytest.fixture
def ring():
    """A fresh process recorder for the test; the previous one restored."""
    rec = flightrec.FlightRecorder(capacity=1024)
    previous = flightrec.install(rec)
    try:
        yield rec
    finally:
        flightrec.install(previous)


class TestSupervisorRecord:
    """Workers ship back only what the supervisor cannot see; the
    supervisor's ring is the one record of each pool attempt."""

    def test_frames_carry_no_ring_tail_or_write_only_fields(
            self, monkeypatch):
        from repro.service import pool, proto

        received, sent = [], []
        on_frame = pool._Supervisor._on_frame
        write_frame_fd = proto.write_frame_fd

        def spy_on_frame(self, slot, frame):
            received.append(frame)
            return on_frame(self, slot, frame)

        def spy_write(fd, message):
            sent.append(message)
            return write_frame_fd(fd, message)

        monkeypatch.setattr(pool._Supervisor, "_on_frame", spy_on_frame)
        monkeypatch.setattr(proto, "write_frame_fd", spy_write)
        # A short injected hang keeps file 0 in flight across several
        # heartbeats; tracing puts a telemetry stanza on every task frame.
        schedule = FaultSchedule(
            specs=(FaultSpec(index=0, stage="check", kind="hang"),),
            hang_s=0.3,
        )
        report = check_batch(
            [("a.fg", GOOD), ("b.fg", GOOD)],
            BatchPolicy(isolate="pool", pool_workers=1, heartbeat_ms=20.0),
            instrumentation=Instrumentation(
                tracer=Tracer(), metrics=MetricsRegistry(),
            ),
            fault_schedule=schedule,
        )
        assert all(f.ok for f in report.files)
        results = [f for f in received if f.get("type") == "result"]
        beats = [f for f in received if f.get("type") == "heartbeat"]
        tasks = [m for m in sent if m.get("type") == "task"]
        assert results and beats and tasks
        for frame in results + beats:
            assert "flightrec" not in frame, frame
        for frame in results:
            assert "trace_id" not in frame["telemetry"]
        for frame in tasks:
            assert "max_mem_mb" not in frame
            assert "trace_id" not in frame["telemetry"]
            assert "parent_span" not in frame["telemetry"]

    @pytest.mark.parametrize("traced", [False, True])
    def test_one_pool_attempt_span_per_attempt(self, ring, traced):
        inst = Instrumentation(tracer=Tracer()) if traced else None
        report = check_batch(
            [("a.fg", GOOD), ("b.fg", GOOD), ("c.fg", GOOD)],
            BatchPolicy(isolate="pool", pool_workers=2,
                        retry=RetryPolicy(max_retries=2)),
            instrumentation=inst,
            fault_schedule=FaultSchedule(kills=(WorkerKillSpec(index=1),)),
        )
        assert all(f.ok for f in report.files)
        attempts = sorted(
            (f.file, a.attempt) for f in report.files for a in f.attempts
        )
        assert ("b.fg", 0) in attempts  # the attempt lost to the kill
        spans = [s for s in ring.snapshot()["spans"]
                 if s["name"] == "pool.attempt"]
        assert sorted(
            (s["attrs"]["file"], s["attrs"]["attempt"]) for s in spans
        ) == attempts
        for span in spans:
            attrs = span["attrs"]
            assert set(attrs) == {"file", "attempt", "slot", "pid"}
            assert isinstance(attrs["slot"], int)
            assert isinstance(attrs["pid"], int)
            assert attrs["pid"] != os.getpid()
            assert span["end_ns"] >= span["start_ns"]
        if traced:
            # The trace keeps one grafted bracket per *completed* attempt;
            # the lost one shipped nothing back to graft.
            grafted = [s for s in inst.tracer.spans
                       if s.name == "pool.attempt"]
            assert len(grafted) == len(attempts) - 1


class _Daemon:
    """A live in-process daemon for bundle tests."""

    def __init__(self, **options):
        self.tmp = tempfile.TemporaryDirectory(prefix="fgcb", dir="/tmp")
        self.socket_path = os.path.join(self.tmp.name, "fg.sock")
        self.options = ServeOptions(socket_path=self.socket_path, **options)
        self.server = Server(
            BatchPolicy(isolate="pool", pool_workers=1), self.options,
        )
        self._thread = threading.Thread(
            target=self.server.serve, daemon=True,
        )

    def __enter__(self):
        self._thread.start()
        assert self.server.ready.wait(20.0), "daemon never became ready"
        return self

    def __exit__(self, *exc):
        try:
            if self._thread.is_alive():
                try:
                    request_shutdown(self.socket_path)
                except Exception:  # noqa: BLE001
                    pass
                self._thread.join(timeout=30.0)
        finally:
            self.tmp.cleanup()


class TestDaemonBundles:
    def test_debug_bundle_request_returns_and_writes_manual(self):
        with _Daemon(blackbox_interval_s=60.0) as daemon:
            response = debug_bundle(daemon.socket_path)
            assert response["type"] == "debug-bundle"
            bundle = response["bundle"]
            assert flightrec.validate_bundle(bundle) == []
            assert bundle["fault"]["kind"] == "manual"
            assert bundle["health"]["type"] == "health"
            assert bundle["policy"]["isolate"] == "pool"
            path = response["path"]
            assert path is not None and os.path.exists(path)
            on_disk = flightrec.read_bundle(path)
            assert on_disk["fault"]["kind"] == "manual"

    def test_blackbox_written_live_and_removed_on_clean_exit(self):
        with _Daemon(blackbox_interval_s=0.05) as daemon:
            crash = daemon.options.effective_crash_dir()
            live = os.path.join(
                crash, f"live-{os.getpid()}.bundle.json"
            )
            deadline = time.monotonic() + 10.0
            while not os.path.exists(live):
                assert time.monotonic() < deadline, "no blackbox bundle"
                time.sleep(0.02)
            bundle = flightrec.read_bundle(live)
            assert flightrec.validate_bundle(bundle) == []
            assert bundle["fault"]["kind"] == "hard-death"
            request_shutdown(daemon.socket_path)
            daemon._thread.join(timeout=30.0)
            # Clean drain retracts the blackbox: if the file is still
            # there after the process is gone, it *is* the crash.
            assert not os.path.exists(live)

    def test_health_reports_unwritable_ops_log(self, tmp_path):
        missing = tmp_path / "no-such-dir" / "ops.jsonl"
        with _Daemon(ops_log_path=str(missing),
                     blackbox_interval_s=60.0) as daemon:
            payload = health(daemon.socket_path)
            assert payload["ops_log_writable"] is False
            tail = events(daemon.socket_path, tail=50)["events"]
            warnings = [e for e in tail
                        if e["event"] == "ops-log-unwritable"]
            assert warnings and warnings[0]["path"] == str(missing)

    def test_health_reports_writable_ops_log(self):
        with _Daemon(blackbox_interval_s=60.0) as daemon:
            assert health(daemon.socket_path)["ops_log_writable"] is True
