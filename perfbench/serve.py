"""The ``serve-mixed`` workload: the ``fg serve`` daemon over its socket.

The daemon runs in its own process (``serve --pool-workers 2 --verify``).
One client process drives it through ``repro.service.check_remote`` over
at most two connections, in three phases: an open loop at the fixed
``LOW`` rate, an open loop at the fixed ``HIGH`` rate, then a closed loop
on one connection.  In the open loops each request is timed from the
moment it was due, so a stall also charges the requests queued behind it.
The three phases run in ``ROUNDS`` short rounds, so that a change of
machine speed during a run touches every metric alike.  Whenever no request
is in flight (in the open loops' idle gaps, between two closed-loop
requests, between daemon launches) the client times the machine-speed
reference (``calib.py``) once on each CPU, and each request's times are
scaled by the readings around it.  Timed while a request is in flight, the
reference would measure the daemon's load instead of the machine.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from common import (
    OUT, ROOT, Spans, arrivals, child_env, judge, median, quantile,
)
from calib import Gauge
import gen
from inproc import LayerTotals, Tally, trace_program

#: Fixed open-loop rates in requests per second, about 13% and 26% of the
#: closed-loop ``capacity_rps`` on a 2-core x86-64 host.  A prelude request
#: holds the daemon's single executor for 25-150 ms, so even these rates
#: queue a share of requests behind one (about 12% and 24%); higher rates
#: put the median on the edge between queued and not, where it swings from
#: run to run.
LOW = 6.0
HIGH = 12.0
#: Shares of the run given to the low, high and closed-loop phases.
PHASES = (0.5, 0.3, 0.2)
#: Daemon launches per run to time set-up; the median is kept and the last
#: daemon serves the phases.
SETUP_LAUNCHES = 5
#: Client connections (threads) in the open loops.
CONNECTIONS = 2
ROUNDS = 3
#: Reference timings taken on each CPU between daemon launches.
GAUGE_TICKS = 3
#: The open loop times the reference only when no request is due sooner.
IDLE_MARGIN_S = 0.03
PRELUDE_EVERY = 5  # one request in five sets {"prelude": true}
POOL_SIZE = 240  # distinct programs per pool; requests draw from them


class Requests:
    """Seeded request stream with known answers.

    Request ``r`` is a pure function of ``(seed, r)``.  Each block of 30
    requests holds six prelude requests, one in each run of five, with one
    of each size from 1 to 6 files, and 24 plain requests with each size
    four times, so every seed has the same mix.  Plain requests hold
    self-contained programs; prelude requests draw from programs built on
    the prelude.
    """

    def __init__(self, seed: int):
        self.seed = seed
        validator = gen.Validator()
        self.plain = [gen.small_program(seed, 10_000 + j,
                                        self_contained=True)
                      for j in range(POOL_SIZE)]
        self.prelude = [gen.small_program(seed, 20_000 + j, allow_ext=False)
                        for j in range(POOL_SIZE)]
        for p in self.plain:
            validator.check(p, False)
        for p in self.prelude:
            validator.check(p, True)

    def get(self, r: int) -> Tuple[bool, List[gen.Program]]:
        block = random.Random(f"block:{self.seed}:{r // 30}")
        prelude_sizes = [1, 2, 3, 4, 5, 6]
        plain_sizes = prelude_sizes * 4
        block.shuffle(prelude_sizes)
        block.shuffle(plain_sizes)
        prelude_at = [block.randrange(PRELUDE_EVERY) for _ in range(6)]
        group, pos = divmod(r % 30, PRELUDE_EVERY)
        prelude = pos == prelude_at[group]
        if prelude:
            size = prelude_sizes[group]
        else:
            size = plain_sizes[group * 4 + pos - (pos > prelude_at[group])]
        rng = random.Random(f"request:{self.seed}:{r}")
        files = rng.sample(self.prelude if prelude else self.plain, size)
        return prelude, files


class Daemon:
    """One ``fg serve`` process and its run directory."""

    def __init__(self, run_dir: str):
        self.run_dir = run_dir
        self.socket = os.path.relpath(os.path.join(run_dir, "d.sock"), ROOT)
        self.journal = os.path.join(run_dir, "d.journal")
        self.proc: Optional[subprocess.Popen] = None
        self._log = None

    def start(self, probe: List[Tuple[str, str]]) -> float:
        """Launch and wait for the first successful response; returns the
        seconds from launch to that response."""
        from repro.service import ClientError, check_remote

        os.makedirs(self.run_dir, exist_ok=True)
        for leftover in ("d.sock", "d.journal"):
            path = os.path.join(self.run_dir, leftover)
            if os.path.exists(path):
                os.unlink(path)
        cmd = [sys.executable, "-m", "repro.tools.cli", "serve",
               "--socket", self.socket, "--pool-workers", "2", "--verify",
               "--journal", self.journal,
               "--ops-log", os.path.join(self.run_dir, "ops.jsonl"),
               "--crash-dir", os.path.join(self.run_dir, "crash")]
        self._log = open(os.path.join(self.run_dir, "daemon.log"), "ab")
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                     stdout=self._log, stderr=self._log)
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError("daemon exited during start-up; see "
                                   f"{self.run_dir}/daemon.log")
            if time.perf_counter() - start > 120:
                raise RuntimeError("daemon did not answer within 120 s")
            try:
                response = check_remote(self.socket, probe, timeout=60)
            except ClientError:
                time.sleep(0.002)
                continue
            if response.get("type") == "report":
                return time.perf_counter() - start
            time.sleep(0.002)

    def pids(self) -> List[int]:
        """The daemon and its pool workers (its direct children)."""
        pid = self.proc.pid
        out = [pid]
        task_dir = f"/proc/{pid}/task"
        try:
            for tid in os.listdir(task_dir):
                with open(f"{task_dir}/{tid}/children") as fh:
                    out.extend(int(c) for c in fh.read().split())
        except OSError:
            pass
        return out

    def stop(self) -> None:
        from repro.service import ClientError, request_shutdown

        if self.proc is None:
            return
        try:
            if self.proc.poll() is None:
                try:
                    request_shutdown(self.socket, timeout=10)
                except ClientError:
                    self.proc.terminate()
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait(timeout=30)
        finally:
            self.proc = None
            if self._log is not None:
                self._log.close()
                self._log = None


def _rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class RssSampler(threading.Thread):
    """Samples daemon + worker RSS from /proc every 50 ms; keeps the peak."""

    def __init__(self, daemon: Daemon):
        super().__init__(daemon=True)
        self._server = daemon
        self._stop_event = threading.Event()
        self.peak_kb = 0

    def run(self) -> None:
        while not self._stop_event.is_set():
            total = sum(_rss_kb(pid) for pid in self._server.pids())
            self.peak_kb = max(self.peak_kb, total)
            self._stop_event.wait(0.05)

    def stop(self) -> None:
        self._stop_event.set()
        self.join(timeout=5)


class Client:
    """Sends requests, judges every verdict, and keeps per-request timings.

    Times are kept raw with the moment they were taken and scaled to
    reference speed at the end of the run (:meth:`scaled`), when the gauge
    has readings on both sides of every request.  With ``spans`` set the
    client also records the traced view: spans around each call, frame
    sizes, and the report fields the per-layer metrics need.
    """

    def __init__(self, daemon: Daemon, requests: Requests, tally: Tally,
                 gauge: Gauge, spans: Optional[Spans] = None):
        self.daemon = daemon
        self.gauge = gauge
        self.requests = requests
        self.tally = tally
        self.spans = spans
        #: (sent, done, per-file attempt ms) of every report.
        self.reports: List[Tuple[float, float, List[float]]] = []
        self.traced: List[dict] = []
        self._lock = threading.Lock()

    def send(self, r: int, due: Optional[float] = None) \
            -> Tuple[float, float]:
        """One request; returns when it was sent and when it completed
        (``perf_counter``)."""
        from repro.service import ClientError, check_remote

        prelude, files = self.requests.get(r)
        sources = [(p.name, p.text) for p in files]
        overrides = {"prelude": True} if prelude else None
        accepted: List[float] = []
        on_accept = ((lambda frame: accepted.append(time.perf_counter()))
                     if self.spans is not None else None)
        sent = time.perf_counter()
        try:
            response = check_remote(self.daemon.socket, sources,
                                    policy_overrides=overrides, timeout=120,
                                    on_accept=on_accept)
        except ClientError:
            response = {"type": "error"}
        done = time.perf_counter()
        self._judge(response, files, sent, done)
        if self.spans is not None:
            self._trace(r, due if due is not None else sent, sent, done,
                        sources, overrides, response, accepted)
        return sent, done

    def scaled(self, t0: float, t1: float, value: float) -> float:
        """``value``, timed over ``[t0, t1]``, at reference speed."""
        return value * self.gauge.scale(t0, t1)

    def verdict_ms(self) -> List[float]:
        return [self.scaled(sent, done, ms)
                for sent, done, durations in self.reports
                for ms in durations]

    def _judge(self, response: dict, files: List[gen.Program],
               sent: float, done: float) -> None:
        with self._lock:
            if response.get("type") != "report":
                # Shed, overload, draining or a lost connection: the request
                # failed as a whole.
                self.tally.record(False, None, refused=True)
                return
            outcomes = response["report"]["files"]
            all_correct = len(outcomes) == len(files)
            durations = []
            for p, outcome in zip(files, outcomes):
                correct, line_ok = judge(
                    p, outcome["status"] == "ok", None,
                    outcome.get("diagnostics") or [], check_value=False,
                )
                if outcome["status"] not in ("ok", "diagnostics"):
                    correct = False
                if line_ok is not None:
                    self.tally.planted += 1
                    self.tally.line_correct += int(line_ok)
                all_correct = all_correct and correct
                attempts = outcome.get("attempts") or []
                if attempts:
                    durations.append(attempts[-1]["duration_ms"])
            self.reports.append((sent, done, durations))
            self.tally.record(all_correct, None)

    def _trace(self, r, due, sent, done, sources, overrides, response,
               accepted) -> None:
        from repro.service import proto

        payload = {"type": "batch",
                   "sources": [[n, t] for n, t in sources]}
        if overrides:
            payload["policy"] = overrides
        root = self.spans.add("request", due, done, r, parent=None)
        if sent > due:
            self.spans.add("loadgen.wait", due, sent, r, parent=root)
        self.spans.add("service.check_remote", sent, done, r, parent=root)
        record = {
            "sent": sent,
            "done": done,
            "late_ms": (sent - due) * 1e3,
            "rtt_ms": (done - sent) * 1e3,
            "request_bytes": len(proto.encode_frame(payload)),
            "response_bytes": len(proto.encode_frame(response)),
        }
        report = response.get("report")
        if response.get("type") == "report" and report:
            elapsed = float(report.get("elapsed_ms") or 0.0)
            durations = [
                (o.get("attempts") or [{}])[-1].get("duration_ms", 0.0)
                for o in report["files"]
            ]
            record["elapsed_ms"] = elapsed
            record["busiest_ms"] = _busiest_worker_ms(durations, 2)
            record["pool"] = report.get("pool") or {}
            if accepted:
                record["outside_batch_ms"] = (
                    (done - accepted[0]) * 1e3 - elapsed)
        with self._lock:
            self.traced.append(record)


def _busiest_worker_ms(durations: List[float], workers: int) -> float:
    """Summed attempt time of the busiest worker when files go, in order,
    to whichever worker frees up first (the pool's dispatch order)."""
    loads = [0.0] * workers
    for d in durations:
        i = loads.index(min(loads))
        loads[i] += d
    return max(loads)


def open_loop(client: Client, first: int, rate: float, seconds: float,
              seed: int, tag: str) -> Tuple[List[Tuple[float, float]], int]:
    """Requests ``first, first + 1, ...`` due on a seeded schedule at
    ``rate``, sent over ``CONNECTIONS`` connections; returns each request's
    ``(due, done)`` times and the next request index.

    Meanwhile the calling thread times the reference whenever no request
    is in flight and none is due within ``IDLE_MARGIN_S``, so the readings
    see the machine, not the daemon's load.
    """
    due = arrivals(seed, rate, seconds, tag)
    times: List[Optional[Tuple[float, float]]] = [None] * len(due)
    lock = threading.Lock()
    cursor = [0]
    # Per connection: the due time it waits for, or None while sending.
    waiting: List[Optional[float]] = [0.0] * CONNECTIONS
    t0 = time.perf_counter() + 0.05

    def worker(slot: int):
        while True:
            with lock:
                k = cursor[0]
                cursor[0] += 1
                target = t0 + due[k] if k < len(due) else float("inf")
                waiting[slot] = target
            if k >= len(due):
                return
            delay = target - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            with lock:
                waiting[slot] = None
            _, done = client.send(first + k, due=target)
            times[k] = (target, done)

    threads = [threading.Thread(target=worker, args=(slot,))
               for slot in range(CONNECTIONS)]
    for t in threads:
        t.start()
    while any(t.is_alive() for t in threads):
        with lock:
            idle = None not in waiting and (
                min(waiting) - time.perf_counter() > IDLE_MARGIN_S)
        if idle:
            client.gauge.tick_each_cpu(1)
        else:
            time.sleep(0.001)
    for t in threads:
        t.join()
    return [x for x in times if x is not None], first + len(due)


def closed_loop(client: Client, first: int, seconds: float) \
        -> List[Tuple[float, float]]:
    """Back-to-back requests on one connection for ``seconds``, with a
    reference reading between each two; returns each request's
    ``(sent, done)``."""
    out = []
    start = time.perf_counter()
    r = first
    while time.perf_counter() - start < seconds:
        out.append(client.send(r))
        client.gauge.tick_each_cpu(1)
        r += 1
    return out


def _run_dir() -> str:
    return os.path.join(OUT, f"serve-{os.getpid()}")


def _start(requests: Requests, launches: int, gauge: Gauge) \
        -> Tuple[Daemon, float, float]:
    """Launch the daemon ``launches`` times; returns the last, still
    running, and the median launch-to-first-answer time, scaled and raw."""
    _, files = requests.get(0)
    probe = [(files[0].name, files[0].text)]
    times, raw = [], []
    daemon = None
    for k in range(launches):
        gauge.tick_each_cpu(GAUGE_TICKS)
        daemon = Daemon(_run_dir())
        start = time.perf_counter()
        try:
            raw.append(daemon.start(probe))
        except BaseException:
            daemon.stop()
            raise
        times.append(raw[-1] * gauge.scale(start, start + raw[-1]))
        if k < launches - 1:
            daemon.stop()
    gauge.tick_each_cpu(GAUGE_TICKS)
    return daemon, median(times), median(raw)


def _warm(client: Client) -> None:
    """A few untimed requests so both workers have checked programs with
    and without the prelude before anything is timed."""
    for r in range(-30, 0):
        client.send(r)


def _latencies(client: Client, times: List[Tuple[float, float]]) \
        -> List[float]:
    """Latencies in seconds, from due time to completion, scaled."""
    return [client.scaled(t0, t1, t1 - t0) for t0, t1 in times]


def run(seed: int, seconds: float) -> Dict[str, object]:
    """The untraced run: every end-to-end metric."""
    requests = Requests(seed)
    gauge = Gauge()
    tally = Tally()
    low: List[Tuple[float, float]] = []
    high: List[Tuple[float, float]] = []
    closed: List[Tuple[float, float]] = []
    daemon, setup, setup_raw = _start(requests, SETUP_LAUNCHES, gauge)
    sampler = RssSampler(daemon)
    try:
        sampler.start()
        _warm(Client(daemon, requests, Tally(), gauge))
        client = Client(daemon, requests, tally, gauge)
        r = 0
        for k in range(ROUNDS):
            times, r = open_loop(client, r, LOW,
                                 PHASES[0] * seconds / ROUNDS, seed,
                                 f"low{k}")
            low += times
            times, r = open_loop(client, r, HIGH,
                                 PHASES[1] * seconds / ROUNDS, seed,
                                 f"high{k}")
            high += times
            times = closed_loop(client, r, PHASES[2] * seconds / ROUNDS)
            r += len(times)
            closed += times
        gauge.tick_each_cpu(GAUGE_TICKS)
    finally:
        sampler.stop()
        daemon.stop()
        shutil.rmtree(_run_dir(), ignore_errors=True)
    busy = sum(_latencies(client, closed))
    in_closed = set(closed)
    closed_files = sum(len(d) for sent, done, d in client.reports
                       if (sent, done) in in_closed)
    verdict = client.verdict_ms()
    low_s, high_s = _latencies(client, low), _latencies(client, high)
    metrics = {
        "setup_s": (setup, "s"),
        "verdict_ms.p50": (median(verdict), "ms"),
        "verdict_ms.p90": (quantile(verdict, 0.9), "ms"),
        "programs_per_s": (closed_files / busy, "1/s"),
        "request_ms.p50.low": (median(low_s) * 1e3, "ms"),
        "request_ms.p90.low": (quantile(low_s, 0.9) * 1e3, "ms"),
        "request_ms.p50.high": (median(high_s) * 1e3, "ms"),
        "request_ms.p90.high": (quantile(high_s, 0.9) * 1e3, "ms"),
        "capacity_rps": (len(closed) / busy, "1/s"),
        "peak_rss_mb": (sampler.peak_kb / 1024.0, "MB"),
    }
    extra = {
        "failed_share": (tally.failed / tally.attempted, "ratio"),
        "diag_line_correct_share": (tally.line_share, "ratio"),
        "samples": (len(low) + len(high) + len(closed), "count"),
        "raw.setup_s": (setup_raw, "s"),
        "raw.capacity_rps": (
            len(closed) / sum(t1 - t0 for t0, t1 in closed), "1/s"),
        "reference_ms": (gauge.median_ms(), "ms"),
    }
    return {"metrics": metrics, "extra": extra, "tally": tally}


def _traced_phases(requests: Requests, gauge: Gauge, tally: Tally,
                   seed: int, seconds: float, spans: Spans):
    """Daemon phases of the traced run; returns the untraced and traced
    clients and ``(untraced low times, traced low times, number of
    open-loop records, journal growth, final stats() snapshot)``."""
    from repro.service import stats

    daemon, _, _ = _start(requests, 1, gauge)
    try:
        _warm(Client(daemon, requests, Tally(), gauge))
        plain = Client(daemon, requests, tally, gauge)
        low_untraced, r = open_loop(plain, 0, LOW, 0.25 * seconds, seed,
                                    "low")
        client = Client(daemon, requests, tally, gauge, spans)
        journal_before = os.path.getsize(daemon.journal)
        # The same requests on the same schedule as the untraced phase.
        low_traced, _ = open_loop(client, 0, LOW, 0.25 * seconds, seed,
                                  "low")
        _, r = open_loop(client, r, HIGH, 0.25 * seconds, seed, "high")
        open_records = len(client.traced)
        closed_loop(client, r, 0.25 * seconds)
        journal_bytes = os.path.getsize(daemon.journal) - journal_before
        snapshot, _ = spans.call("service.stats", None, stats,
                                 daemon.socket)
        gauge.tick_each_cpu(GAUGE_TICKS)
    finally:
        daemon.stop()
        shutil.rmtree(_run_dir(), ignore_errors=True)
    return plain, client, (low_untraced, low_traced, open_records,
                           journal_bytes, snapshot)


def service_metrics(seed: int, seconds: float, spans: Spans) \
        -> Tuple[Dict[str, Tuple[float, str]], Tally]:
    """Daemon phases of a traced run over the ``serve-mixed`` request
    stream, and the service-layer metrics they give; also returns the
    tally of the requests' verdicts."""
    requests = Requests(seed)
    gauge = Gauge()
    tally = Tally()
    plain, client, phases = _traced_phases(requests, gauge, tally, seed,
                                           seconds, spans)
    low_untraced, low_traced, n_open, journal_bytes, snapshot = phases
    records = client.traced
    open_records = records[:n_open]
    served = [x for x in records if "elapsed_ms" in x]
    for x in served:
        scale = gauge.scale(x["sent"], x["done"])
        for key in ("rtt_ms", "elapsed_ms", "busiest_ms", "outside_batch_ms"):
            if key in x:
                x[key] *= scale
    pool_sum = {k: sum(int(x["pool"].get(k, 0)) for x in served)
                for k in ("spawned", "respawns", "steals")}
    waits = [x["outside_batch_ms"] for x in served
             if "outside_batch_ms" in x]
    untraced_verdict = plain.verdict_ms()
    traced_verdict = client.verdict_ms()[:len(untraced_verdict)]
    return {
        "diag_line_correct_share": (tally.line_share, "ratio"),
        "service.pool.ipc_ms": (median(
            [x["elapsed_ms"] - x["busiest_ms"] for x in served]), "ms"),
        "service.pool.worker_utilization": (
            float(snapshot.get("worker_utilization") or 0.0), "ratio"),
        "service.pool.spawned": (pool_sum["spawned"], "count"),
        "service.pool.respawns": (pool_sum["respawns"], "count"),
        "service.pool.steals": (pool_sum["steals"], "count"),
        "service.server.overhead_ms": (median(
            [x["rtt_ms"] - x["elapsed_ms"] for x in served]), "ms"),
        "service.server.queue_wait_ms.p50": (median(waits), "ms"),
        "service.server.queue_wait_ms.p90": (quantile(waits, 0.9), "ms"),
        "service.server.shed": (int(snapshot.get("shed_total") or 0),
                                "count"),
        "service.journal.bytes_per_request": (
            journal_bytes / max(1, len(records)), "B"),
        "service.proto.request_bytes": (median(
            [x["request_bytes"] for x in records]), "B"),
        "service.proto.response_bytes": (median(
            [x["response_bytes"] for x in records]), "B"),
        "loadgen.late_ms.p90": (quantile(
            [x["late_ms"] for x in open_records], 0.9), "ms"),
        "trace.overhead.verdict_ms.p50": (
            median(traced_verdict) - median(untraced_verdict), "ms"),
        "trace.overhead.request_ms.p50.low": (
            (median(_latencies(client, low_traced))
             - median(_latencies(plain, low_untraced))) * 1e3, "ms"),
    }, tally


def run_traced(seed: int, seconds: float, spans: Spans) -> Dict[str, object]:
    """The traced run: the daemon phases of :func:`service_metrics` for
    0.8 of ``seconds``, then the in-process layer pass over the files of
    the same requests."""
    service, tally = service_metrics(seed, 0.8 * seconds, spans)
    requests = Requests(seed)
    gauge = Gauge()
    totals = LayerTotals()
    start = time.perf_counter()
    r = 0
    while time.perf_counter() - start < 0.2 * seconds:
        prelude, files = requests.get(r)
        for p in files:
            gauge.tick()
            now = time.perf_counter()
            trace_program(spans, totals, r, p, prelude, False,
                          gauge.scale(now, now))
        r += 1
    metrics = totals.metrics()
    metrics.update(service)
    return {"metrics": metrics, "tally": tally}
