"""Supervised persistent worker-process pool for the batch service.

The process wall of ``isolate="pool"``: a supervisor forks
``pool_workers`` persistent children *once* (each imports the pipeline
and, for a prelude batch, checks the prelude at spawn, so prelude tasks
check only their own program), then feeds them over the framed pipe
protocol (:mod:`repro.service.proto`) from per-worker deques with work
stealing.  ``recycle_after_tasks=1`` gives every attempt a fresh
interpreter.

**Failure domains.**  A task that merely raises is contained *inside* the
worker (a structured ``"crash"`` result; the worker survives).  The
supervisor's business is process death:

- a worker that exits, is SIGKILLed, or goes heartbeat-silent is reaped;
  its in-flight task gets a ``worker-lost`` attempt (retryable under the
  normal :class:`~repro.service.policy.RetryPolicy`/quarantine taxonomy)
  and a replacement is spawned into the same slot, up to the pool-wide
  ``max_respawns`` budget;
- a worker that blows the attempt deadline is hard-killed after a grace
  window (the in-worker cooperative deadline gets first shot, because a
  self-reported timeout keeps the worker warm); either path records the
  same ``timeout``/``deadline`` attempt;
- with the respawn budget exhausted, dead slots retire (their queues are
  drained by the survivors via stealing), and when *no* worker remains the
  supervisor degrades to in-process execution — the batch completes with a
  partial-failure exit code at worst, never a hang.

**Determinism.**  Attempt records never mention which worker ran them, and
chaos worker kills are keyed to *(file index, attempt number)* at dispatch
time — not to wall clock — so canonical report digests are byte-identical
across rounds.  Scheduling-dependent counters (``steals``,
``heartbeat_misses``, ``warm_ms``) are declared volatile and stripped from
:meth:`~repro.service.report.BatchReport.canonical_json`.
"""

from __future__ import annotations

import collections
import os
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.observability import NULL_TRACER, merge_worker_telemetry
from repro.observability import flightrec
from repro.service import proto
from repro.service.faults import (
    FAULT_CRASH,
    FAULT_DEADLINE,
    FAULT_MEMORY,
    FAULT_WORKER_LOST,
    FaultSchedule,
    is_retryable,
)
from repro.service.policy import BatchPolicy
from repro.service.report import AttemptRecord, CrashReport, FileOutcome
from repro.service.worker import (
    AttemptResult,
    _child_env,
    result_to_attempt,
    run_attempt_thread,
    task_payload,
    telemetry_request,
)

_FAULT_KIND = {
    "timeout": FAULT_DEADLINE,
    "crash": FAULT_CRASH,
    "memory": FAULT_MEMORY,
}

#: Grace past the cooperative deadline before the supervisor hard-kills a
#: worker: half the deadline, floored and capped.  Wide enough that a
#: worker's self-reported timeout normally wins (keeping it warm), narrow
#: enough that a genuinely wedged worker is reaped promptly.
GRACE_FRACTION = 0.5
GRACE_MIN_MS = 50.0
GRACE_MAX_MS = 2_000.0

#: A live-but-silent worker (no heartbeat, no result) is declared lost
#: after this many heartbeat periods, with an absolute floor so a loaded
#: machine doesn't reap healthy workers.
HEARTBEAT_MISS_PERIODS = 20
HEARTBEAT_MISS_FLOOR_S = 2.0


@dataclass
class PoolStats:
    """What the supervisor did, for the report's ``pool`` block.

    ``steals``, ``heartbeat_misses``, and ``warm_ms`` depend on OS
    scheduling and are stripped from the canonical digest
    (:data:`~repro.service.report.VOLATILE_POOL_FIELDS`); everything else
    is deterministic for a given input/policy/schedule triple.
    """

    workers: int = 0
    spawned: int = 0
    respawns: int = 0
    worker_lost: int = 0
    deadline_kills: int = 0
    retired: int = 0
    degraded: bool = False
    steals: int = 0
    heartbeat_misses: int = 0
    warm_ms: float = 0.0
    #: Resource-governor counters: graceful recycles (never charged to
    #: ``max_respawns``) and the peak heartbeat-sampled worker RSS.  Both
    #: depend on OS memory accounting and heartbeat timing, so they are
    #: volatile like ``steals``.
    recycles: int = 0
    rss_bytes: int = 0

    def to_json(self) -> Dict[str, object]:
        return {
            "workers": self.workers,
            "spawned": self.spawned,
            "respawns": self.respawns,
            "worker_lost": self.worker_lost,
            "deadline_kills": self.deadline_kills,
            "retired": self.retired,
            "degraded": self.degraded,
            "steals": self.steals,
            "heartbeat_misses": self.heartbeat_misses,
            "warm_ms": self.warm_ms,
            "recycles": self.recycles,
            "rss_bytes": self.rss_bytes,
        }


class _TaskState:
    """One file's retry state machine, advanced attempt by attempt.

    Mirrors the classification in ``repro.service.batch._check_one``
    exactly — same fault taxonomy, same breaker and budget arithmetic —
    so a pool report is record-for-record comparable with the other
    isolation modes.
    """

    __slots__ = ("index", "filename", "text", "home", "attempt",
                 "consecutive", "attempts", "final", "quarantined", "done",
                 "ready_at")

    def __init__(self, index: int, filename: str, text: str, home: int):
        self.index = index
        self.filename = filename
        self.text = text
        self.home = home
        self.attempt = 0
        self.consecutive = 0
        self.attempts: List[AttemptRecord] = []
        self.final: Optional[AttemptResult] = None
        self.quarantined = False
        self.done = False
        self.ready_at = 0.0  # monotonic instant this task may redispatch

    def resolve(self, result: AttemptResult, injected: Tuple[str, ...],
                policy: BatchPolicy,
                fault_override: Optional[str] = None) -> Optional[float]:
        """Fold one attempt in; returns the backoff in ms when the task
        should retry, ``None`` when it is finished."""
        self.final = result
        fault_kind = fault_override or _FAULT_KIND.get(result.status)
        if fault_kind is None:
            self.attempts.append(AttemptRecord(
                attempt=self.attempt, status=result.status,
                injected=injected, duration_ms=result.duration_ms,
            ))
            self.done = True
            return None
        self.consecutive += 1
        retryable = is_retryable(fault_kind)
        breaker_open = self.consecutive >= policy.quarantine_after
        out_of_retries = self.attempt >= policy.retry.max_retries
        will_retry = retryable and not breaker_open and not out_of_retries
        backoff_ms = (
            policy.retry.backoff_ms(self.consecutive - 1)
            if will_retry else 0.0
        )
        self.attempts.append(AttemptRecord(
            attempt=self.attempt, status=result.status, fault=fault_kind,
            retryable=retryable, backoff_ms=backoff_ms, injected=injected,
            duration_ms=result.duration_ms,
        ))
        if breaker_open:
            self.quarantined = True
            self.done = True
            return None
        if not will_retry:
            self.done = True
            return None
        self.attempt += 1
        return backoff_ms

    def outcome(self) -> FileOutcome:
        final = self.final
        return FileOutcome(
            file=self.filename,
            index=self.index,
            status=final.status,
            ok=final.status == "ok",
            quarantined=self.quarantined,
            attempts=tuple(self.attempts),
            diagnostics=tuple(final.diagnostics),
            severities=dict(final.severities),
            rendered=final.rendered,
            crash=final.crash,
        )


class _WorkerSlot:
    """A fixed seat at the pool: the process occupying it may be replaced,
    the slot index and its deque persist."""

    __slots__ = ("slot", "proc", "task_w", "result_r", "reader", "queue",
                 "current", "warmed", "last_beat", "retired", "tasks_done",
                 "rss_bytes", "tasks_since_spawn", "recycle_pending")

    def __init__(self, slot: int):
        self.slot = slot
        self.proc: Optional[subprocess.Popen] = None
        self.task_w = -1
        self.result_r = -1
        self.reader = proto.FrameReader()
        self.queue: collections.deque = collections.deque()
        # In-flight dispatch: (task, injected tags, dispatch instant).
        self.current: Optional[Tuple[_TaskState, Tuple[str, ...], float]] = \
            None
        # Set by the worker's hello frame.  Tasks are only dispatched to
        # warmed workers so the deadline clock never includes interpreter
        # startup or prelude warm-up time.
        self.warmed = False
        self.last_beat = 0.0
        self.retired = False
        self.tasks_done = 0
        # Resource-governor state for the occupant: its last self-sampled
        # RSS (from heartbeat frames), how many tasks this *process* has
        # completed (tasks_done is per-seat and survives respawns), and
        # whether the supervisor owes it a graceful recycle.
        self.rss_bytes: Optional[int] = None
        self.tasks_since_spawn = 0
        self.recycle_pending = False

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None


def _init_frame(policy: BatchPolicy) -> Dict[str, object]:
    return {
        "type": "init",
        "prelude": policy.prelude,
        "ext": policy.ext,
    }


def _spawn_process(slot: _WorkerSlot, policy: BatchPolicy) -> None:
    """Spawn a worker process into the slot: pipes, child, reader state.

    Failure-path contract (the warm-up audit): if *any* step raises —
    ``os.pipe`` under fd pressure, ``Popen`` under memory pressure —
    every resource created so far is released before the exception
    propagates, so a half-spawned slot never leaks pipes or a child.
    The caller still owns sending the init frame (its error handling
    differs between the batch supervisor and the persistent pool).
    """
    task_r = task_w = result_r = result_w = -1
    proc: Optional[subprocess.Popen] = None
    try:
        task_r, task_w = os.pipe()
        result_r, result_w = os.pipe()
        argv = [sys.executable, "-m", "repro.service.subproc", "--serve",
                "--task-fd", str(task_r), "--result-fd", str(result_w),
                "--heartbeat-ms", str(policy.heartbeat_ms)]
        if policy.max_worker_mem_mb is not None:
            argv += ["--max-mem-mb", str(policy.max_worker_mem_mb)]
        proc = subprocess.Popen(
            argv,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            pass_fds=(task_r, result_w),
            env=_child_env(),
        )
    except BaseException:
        for fd in (task_r, task_w, result_r, result_w):
            if fd >= 0:
                try:
                    os.close(fd)
                except OSError:
                    pass
        if proc is not None:
            proc.kill()
            proc.wait()
        raise
    os.close(task_r)
    os.close(result_w)
    os.set_blocking(result_r, False)
    slot.proc = proc
    slot.task_w = task_w
    slot.result_r = result_r
    slot.reader = proto.FrameReader()
    slot.warmed = False
    slot.retired = False
    slot.last_beat = time.monotonic()
    slot.rss_bytes = None
    slot.tasks_since_spawn = 0
    slot.recycle_pending = False


def _release_slot_fds(slot: _WorkerSlot) -> None:
    """Close the slot's pipe ends and reset its reader (selector handling,
    if any, is the caller's business)."""
    if slot.result_r >= 0:
        try:
            os.close(slot.result_r)
        except OSError:
            pass
        slot.result_r = -1
    if slot.task_w >= 0:
        try:
            os.close(slot.task_w)
        except OSError:
            pass
        slot.task_w = -1
    slot.reader = proto.FrameReader()


class _Supervisor:
    """Single-threaded event loop owning the worker slots.

    All I/O is non-blocking reads multiplexed through a selector; backoff
    delays are modelled as per-task ``ready_at`` instants folded into the
    select timeout, never as sleeps, so one backing-off file cannot stall
    the others.

    With ``slots`` passed in (the serve daemon's
    :class:`PersistentPool`), the supervisor *borrows* the workers: it
    registers their pipes for the duration of one batch and detaches at
    the end instead of spawning and shutting down — warm workers carry
    over to the next batch.  Losses and deadline kills are handled
    identically either way (a respawn replaces the process in the shared
    slot).
    """

    def __init__(
        self,
        items: Sequence[Tuple[str, str]],
        policy: BatchPolicy,
        *,
        schedule: Optional[FaultSchedule],
        ambient: Dict[str, object],
        serialized_ambient: List[Dict[str, str]],
        tracer,
        slots: Optional[List[_WorkerSlot]] = None,
        instrumentation=None,
        ops=None,
    ):
        self.policy = policy
        self.schedule = schedule
        self.ambient = ambient
        self.serialized_ambient = serialized_ambient
        self.instrumentation = instrumentation
        self.tracer = (
            instrumentation.tracer if instrumentation is not None else tracer
        )
        self.ops = ops
        # The telemetry stanza stamped on every dispatched task frame.
        self._telemetry = telemetry_request(instrumentation)
        self.hang_s = schedule.hang_s if schedule is not None else 0.5
        self.check_kwargs = {
            "prelude": policy.prelude,
            "ext": policy.ext,
            "max_errors": policy.max_errors,
            "limits": policy.effective_limits(),
            "verify": policy.verify,
            "evaluate": policy.evaluate,
        }
        if slots is None:
            n_workers = max(1, min(policy.pool_workers, len(items)))
            self.slots = [_WorkerSlot(i) for i in range(n_workers)]
            self._managed = True
        else:
            self.slots = list(slots)
            n_workers = max(1, len(self.slots))
            self._managed = False
            for slot in self.slots:
                slot.queue.clear()
                slot.current = None
        self.tasks = [
            _TaskState(index, filename, text, index % n_workers)
            for index, (filename, text) in enumerate(items)
        ]
        for task in self.tasks:
            self.slots[task.home].queue.append(task)
        self.kills = [
            [spec, False]
            for spec in (schedule.kills if schedule is not None else ())
        ]
        self.stats = PoolStats(workers=n_workers)
        self.done_count = 0
        # Worker-recycling stagger: the slot index whose graceful recycle
        # is in flight (awaiting the replacement's hello), or None.  At
        # most one seat recycles at a time, so a recycle wave can never
        # take the whole pool cold simultaneously.
        self._recycling: Optional[int] = None
        self._recycle_rss_bytes = (
            int(policy.recycle_rss_mb * 1024 * 1024)
            if policy.recycle_rss_mb is not None else None
        )
        self.sel = selectors.DefaultSelector()
        if policy.deadline_ms is not None:
            grace_ms = min(
                max(policy.deadline_ms * GRACE_FRACTION, GRACE_MIN_MS),
                GRACE_MAX_MS,
            )
            self.kill_after_s = (policy.deadline_ms + grace_ms) / 1000.0
        else:
            self.kill_after_s = None
        self.heartbeat_s = policy.heartbeat_ms / 1000.0
        self.miss_window_s = max(
            self.heartbeat_s * HEARTBEAT_MISS_PERIODS, HEARTBEAT_MISS_FLOOR_S
        )

    # -- lifecycle ----------------------------------------------------------

    def _emit(self, event: str, **fields) -> None:
        """Record one operational event when an ops log is attached."""
        if self.ops is not None:
            self.ops.emit(event, **fields)

    def _dump_crash(self, kind: str, detail: Dict[str, object]) -> None:
        """Write a crash bundle for a pool fault (advisory; no crash dir
        configured → no-op).  The bundle's span ring is this supervisor's
        own: one ``pool.attempt`` span per attempt it has resolved
        (:meth:`_finish_attempt`), so a dead worker's completed files are
        there without the worker having shipped anything, and a loss or
        deadline kill, resolved before its dump, ends the ring."""
        if flightrec.bundle_directory() is None:
            return
        flightrec.dump(kind, detail, context={
            "pool": self.stats.to_json(),
            "policy": self.policy.to_json(),
            "ops_tail": self.ops.tail(50) if self.ops is not None else [],
            "workers": [
                {"slot": s.slot,
                 "pid": s.proc.pid if s.proc is not None else None,
                 "alive": s.alive, "retired": s.retired,
                 "warmed": s.warmed, "tasks_done": s.tasks_done,
                 "queued": len(s.queue),
                 "busy": s.current is not None}
                for s in self.slots
            ],
        })

    def _spawn(self, slot: _WorkerSlot) -> None:
        _spawn_process(slot, self.policy)
        self.sel.register(slot.result_r, selectors.EVENT_READ, slot)
        self.stats.spawned += 1
        self._emit("worker-spawn", slot=slot.slot, pid=slot.proc.pid)
        try:
            proto.write_frame_fd(slot.task_w, _init_frame(self.policy))
        except OSError:
            self._handle_worker_loss(slot, salvage=False)

    def _close_slot(self, slot: _WorkerSlot) -> None:
        if slot.result_r >= 0:
            try:
                self.sel.unregister(slot.result_r)
            except (KeyError, ValueError):
                pass
        _release_slot_fds(slot)

    def _reap(self, slot: _WorkerSlot) -> Optional[int]:
        if slot.proc is None:
            return None
        try:
            return slot.proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            slot.proc.kill()
            return slot.proc.wait()

    def _respawn_or_retire(self, slot: _WorkerSlot) -> None:
        if self.stats.respawns < self.policy.max_respawns:
            self.stats.respawns += 1
            self._emit("worker-respawn", slot=slot.slot)
            self._spawn(slot)
        else:
            slot.retired = True
            self.stats.retired += 1
            if self._recycling == slot.slot:
                self._recycling = None  # a retired seat can't say hello
            self._emit("worker-retire", slot=slot.slot)
            self._dump_crash("respawn-exhausted", {
                "slot": slot.slot,
                "max_respawns": self.policy.max_respawns,
            })

    # -- dispatch and stealing ---------------------------------------------

    def _next_task(self, slot: _WorkerSlot, now: float) \
            -> Optional[_TaskState]:
        for i, task in enumerate(slot.queue):
            if task.ready_at <= now:
                del slot.queue[i]
                return task
        victims = sorted(
            (s for s in self.slots if s is not slot and s.queue),
            key=lambda s: (-len(s.queue), s.slot),
        )
        for victim in victims:
            for i in range(len(victim.queue) - 1, -1, -1):
                if victim.queue[i].ready_at <= now:
                    task = victim.queue[i]
                    del victim.queue[i]
                    self.stats.steals += 1
                    return task
        return None

    def _pending_kill(self, index: int, attempt: int):
        for entry in self.kills:
            spec, fired = entry
            if not fired and spec.applies(index, attempt):
                entry[1] = True
                return spec
        return None

    def _dispatch(self, slot: _WorkerSlot, task: _TaskState) -> None:
        specs = (
            self.schedule.for_attempt(task.index, task.attempt)
            if self.schedule is not None else ()
        )
        injected = tuple(spec.tag for spec in specs)
        frame = task_payload(
            task.text, task.filename, self.check_kwargs,
            self.serialized_ambient, specs, self.hang_s,
            telemetry=self._telemetry,
        )
        frame["type"] = "task"
        frame["id"] = task.index
        frame["attempt"] = task.attempt
        # (task, injected tags, monotonic dispatch instant for deadlines,
        #  perf_counter_ns dispatch instant for the attempt's span).
        slot.current = (task, injected, time.monotonic(),
                        time.perf_counter_ns())
        kill = self._pending_kill(task.index, task.attempt)
        try:
            proto.write_frame_fd(slot.task_w, frame)
        except OSError:
            self._handle_worker_loss(slot, salvage=False)
            return
        if kill is not None:
            target = (
                slot if kill.worker is None
                else self.slots[kill.worker % len(self.slots)]
            )
            if target.alive:
                # No salvage: the kill is keyed to this dispatch, so the
                # attempt must read worker-lost every round, even if the
                # doomed worker got a result out first.
                target.proc.kill()
                self._handle_worker_loss(target, salvage=False)

    def _maybe_recycle(self, slot: _WorkerSlot) -> None:
        """Gracefully recycle an *idle* marked slot: polite shutdown, reap,
        respawn warm into the same seat.

        Only fires between that seat's tasks (``current is None``), so the
        in-flight attempt always finishes first and no result is lost or
        duplicated; the stagger guard keeps every other seat serving while
        one recycles.  Recycles are charged to ``stats.recycles`` — never
        to the ``max_respawns`` fault budget, because a recycle is the
        governor doing its job, not a worker loss.
        """
        if self._recycling is not None:
            return
        self._recycling = slot.slot
        self.stats.recycles += 1
        self._emit(
            "worker-recycle", slot=slot.slot,
            pid=slot.proc.pid if slot.proc is not None else None,
            rss_bytes=slot.rss_bytes, tasks=slot.tasks_since_spawn,
        )
        if slot.task_w >= 0:
            try:
                proto.write_frame_fd(slot.task_w, {"type": "shutdown"})
            except OSError:
                pass
        self._reap(slot)
        self._close_slot(slot)
        try:
            self._spawn(slot)
        except OSError:
            # The seat could not respawn right now; treat it like a loss
            # so the normal respawn/retire path (and its budget) applies.
            self._recycling = None
            self._handle_worker_loss(slot, salvage=False)

    def _fill_idle(self) -> None:
        now = time.monotonic()
        for slot in self.slots:
            if (slot.retired or not slot.alive or not slot.warmed
                    or slot.current is not None):
                continue
            if slot.recycle_pending:
                # A marked seat takes no new task until it has recycled:
                # the task cap and a burned heap both bind the process,
                # not just the seat.  While another seat recycles, the
                # stagger guard defers this one.
                self._maybe_recycle(slot)
                continue
            task = self._next_task(slot, now)
            if task is not None:
                self._dispatch(slot, task)

    # -- attempt resolution -------------------------------------------------

    def _finish_attempt(self, slot: Optional[_WorkerSlot], current: tuple,
                        result: AttemptResult, *,
                        end_ns: Optional[int] = None,
                        fault_override: Optional[str] = None) -> None:
        """Resolve the attempt ``current`` (a ``slot.current`` tuple) ran
        on ``slot`` (``None`` for a degraded in-process attempt).

        Every attempt the supervisor resolves leaves one ``pool.attempt``
        span in the always-on flight ring, timed by the supervisor's own
        dispatch..receive bracket (``end_ns``) or dispatch..loss bracket,
        traced or not: a crash bundle written after a worker dies holds
        the files that worker completed without it shipping anything.
        """
        task, injected, _t0, send_ns = current
        proc = slot.proc if slot is not None else None
        flightrec.record_span(
            "pool.attempt", send_ns,
            end_ns if end_ns is not None else time.perf_counter_ns(),
            {"file": task.filename, "attempt": task.attempt,
             "slot": slot.slot if slot is not None else None,
             "pid": proc.pid if proc is not None else os.getpid()},
        )
        if result.status == "timeout":
            # Both timeout paths — worker-cooperative and supervisor kill —
            # must produce identical records, so drop the partial report a
            # cooperative cancel may have attached.
            result = AttemptResult(
                status="timeout", duration_ms=result.duration_ms
            )
        backoff_ms = task.resolve(result, injected, self.policy,
                                  fault_override)
        if task.done:
            self.done_count += 1
            return
        task.ready_at = (
            time.monotonic() + backoff_ms / 1000.0 if backoff_ms else 0.0
        )
        # Retries go to the front of the home queue: same slot by default,
        # stealable when the home slot is busy or retired.
        self.slots[task.home].queue.appendleft(task)

    def _handle_worker_loss(self, slot: _WorkerSlot, *,
                            salvage: bool = True) -> None:
        if salvage:
            self._drain(slot, handle_eof=False)
        returncode = self._reap(slot)
        self._close_slot(slot)
        self.stats.worker_lost += 1
        self._emit("worker-lost", slot=slot.slot, returncode=returncode)
        current, slot.current = slot.current, None
        if current is not None:
            duration_ms = round((time.monotonic() - current[2]) * 1e3, 3)
            result = AttemptResult(
                status="crash",
                crash=CrashReport(
                    exc_type="WorkerLost",
                    message="pool worker died mid-attempt",
                    where="pool",
                    returncode=returncode,
                ),
                duration_ms=duration_ms,
            )
            self._finish_attempt(slot, current, result,
                                 fault_override=FAULT_WORKER_LOST)
        # Dumped after the resolution, so the bundle's ring ends with the
        # lost attempt's own pool.attempt span.
        self._dump_crash("worker-lost", {
            "slot": slot.slot,
            "returncode": returncode,
            "file": current[0].filename if current is not None else None,
        })
        self._respawn_or_retire(slot)

    def _deadline_kill(self, slot: _WorkerSlot) -> None:
        self._drain(slot, handle_eof=False)
        if slot.current is None:
            return  # the result raced in during the grace window
        if not slot.alive:
            self._handle_worker_loss(slot, salvage=False)
            return
        self.stats.deadline_kills += 1
        self._emit("deadline-kill", slot=slot.slot,
                   file=slot.current[0].filename)
        slot.proc.kill()
        self._reap(slot)
        self._close_slot(slot)
        current, slot.current = slot.current, None
        duration_ms = round((time.monotonic() - current[2]) * 1e3, 3)
        self._finish_attempt(
            slot, current,
            AttemptResult(status="timeout", duration_ms=duration_ms),
        )
        self._dump_crash("deadline-kill", {
            "slot": slot.slot,
            "file": current[0].filename,
            "deadline_ms": self.policy.deadline_ms,
        })
        self._respawn_or_retire(slot)

    # -- the read side ------------------------------------------------------

    def _drain(self, slot: _WorkerSlot, *, handle_eof: bool = True) -> None:
        if slot.result_r < 0:
            return
        eof = False
        while True:
            try:
                chunk = os.read(slot.result_r, 65536)
            except BlockingIOError:
                break
            except OSError:
                eof = True
                break
            if chunk == b"":
                eof = True
                break
            try:
                for frame in slot.reader.feed(chunk):
                    self._on_frame(slot, frame)
            except proto.FrameError:
                eof = True
                break
        if eof and handle_eof:
            self._handle_worker_loss(slot, salvage=False)

    def _on_frame(self, slot: _WorkerSlot, frame: dict) -> None:
        slot.last_beat = time.monotonic()
        kind = frame.get("type")
        if kind == "hello":
            slot.warmed = True
            self.stats.warm_ms += frame.get("warm_ms") or 0.0
            if self._recycling == slot.slot:
                # The recycled seat's replacement is warm: the stagger
                # guard lifts and the next marked seat may recycle.
                self._recycling = None
        elif kind == "result":
            if slot.current is None:
                return  # stale frame from a previous dispatch; drop it
            current = slot.current
            task, _injected, t0, send_ns = current
            if (frame.get("id") != task.index
                    or frame.get("attempt") != task.attempt):
                return
            slot.current = None
            slot.tasks_done += 1
            slot.tasks_since_spawn += 1
            if (self.policy.recycle_after_tasks is not None
                    and slot.tasks_since_spawn
                    >= self.policy.recycle_after_tasks):
                slot.recycle_pending = True
            if frame.get("status") == "memory":
                # The worker tripped its memory budget but survived; its
                # heap high-water mark is burned, so retries must land on
                # a fresh process — mark the seat for a graceful recycle.
                slot.recycle_pending = True
                self._emit(
                    "worker-memory-fault", slot=slot.slot,
                    file=task.filename, attempt=task.attempt,
                )
                self._dump_crash("memory", {
                    "slot": slot.slot,
                    "file": task.filename,
                    "attempt": task.attempt,
                    "max_worker_mem_mb": self.policy.max_worker_mem_mb,
                })
            fallback_ms = round((time.monotonic() - t0) * 1e3, 3)
            recv_ns = time.perf_counter_ns()
            result = result_to_attempt(
                frame, frame.get("duration_ms", fallback_ms)
            )
            # The stitch point: merge what the worker saw — spans offset
            # into this clock, metrics, explain — the moment the result
            # lands, so a later death of this worker loses nothing.  The
            # bracket span stays out of the ring: _finish_attempt records it.
            if result.telemetry is not None:
                merge_worker_telemetry(
                    self.instrumentation, result.telemetry,
                    send_ns=send_ns, recv_ns=recv_ns,
                    span_name="pool.attempt",
                    attrs={
                        "file": task.filename, "attempt": task.attempt,
                        "slot": slot.slot,
                    },
                    ring=False,
                )
            self._finish_attempt(slot, current, result, end_ns=recv_ns)
        elif kind == "heartbeat":
            rss = frame.get("rss_bytes")
            if isinstance(rss, int) and rss > 0:
                slot.rss_bytes = rss
                if rss > self.stats.rss_bytes:
                    self.stats.rss_bytes = rss
                flightrec.record_metric("pool.rss_bytes", rss)
                if (self._recycle_rss_bytes is not None
                        and rss >= self._recycle_rss_bytes):
                    slot.recycle_pending = True
        # Unknown kinds only refresh last_beat.

    # -- watchdogs ----------------------------------------------------------

    def _check_watchdogs(self) -> None:
        now = time.monotonic()
        for slot in self.slots:
            if slot.retired or slot.proc is None:
                continue
            if (slot.current is not None and self.kill_after_s is not None
                    and now - slot.current[2] >= self.kill_after_s):
                self._deadline_kill(slot)
                continue
            if now - slot.last_beat >= self.miss_window_s:
                self.stats.heartbeat_misses += 1
                if slot.alive:
                    slot.proc.kill()
                self._handle_worker_loss(slot, salvage=True)

    def _next_timeout(self) -> float:
        now = time.monotonic()
        candidates = [self.miss_window_s]
        for slot in self.slots:
            if slot.current is not None and self.kill_after_s is not None:
                candidates.append(slot.current[2] + self.kill_after_s - now)
            for task in slot.queue:
                if task.ready_at > now:
                    candidates.append(task.ready_at - now)
        return max(0.0, min(candidates))

    # -- degradation --------------------------------------------------------

    def _drain_in_process(self) -> None:
        """Every worker is gone and the respawn budget is spent: finish the
        remaining tasks in-process, continuing each retry state machine."""
        self.stats.degraded = True
        self._emit("pool-degraded")
        for task in self.tasks:
            while not task.done:
                wait = task.ready_at - time.monotonic()
                if wait > 0:
                    time.sleep(wait)
                specs = (
                    self.schedule.for_attempt(task.index, task.attempt)
                    if self.schedule is not None else ()
                )
                injected = tuple(spec.tag for spec in specs)
                faults = dict(self.ambient)
                for spec in specs:
                    faults[spec.stage] = spec.materialize(self.hang_s)
                current = (task, injected, time.monotonic(),
                           time.perf_counter_ns())
                result = run_attempt_thread(
                    task.text, task.filename, self.check_kwargs, faults,
                    self.policy.deadline_ms,
                    telemetry=self._telemetry,
                )
                if result.telemetry is not None:
                    # In-process attempts share this clock: the worker's
                    # own bracket doubles as the dispatch..receive window.
                    clk = result.telemetry.get("clock") or {}
                    merge_worker_telemetry(
                        self.instrumentation, result.telemetry,
                        send_ns=int(clk.get("start_ns", 0)),
                        recv_ns=int(clk.get("end_ns", 0)),
                        span_name="pool.attempt",
                        attrs={
                            "file": task.filename, "attempt": task.attempt,
                            "degraded": True,
                        },
                        ring=False,
                    )
                self._finish_attempt(None, current, result)

    # -- shutdown -----------------------------------------------------------

    def _shutdown(self) -> None:
        for slot in self.slots:
            if slot.task_w >= 0:
                try:
                    proto.write_frame_fd(slot.task_w, {"type": "shutdown"})
                except OSError:
                    pass
            self._close_slot(slot)
            if slot.proc is not None:
                try:
                    slot.proc.wait(timeout=2.0)
                except subprocess.TimeoutExpired:
                    slot.proc.kill()
                    slot.proc.wait()
        self.sel.close()

    # -- the loop -----------------------------------------------------------

    def _attach(self) -> None:
        """Register borrowed (persistent-pool) slots with this batch's
        selector and restart their heartbeat clocks."""
        now = time.monotonic()
        for slot in self.slots:
            if slot.result_r >= 0:
                self.sel.register(slot.result_r, selectors.EVENT_READ, slot)
                slot.last_beat = now

    def _detach(self) -> None:
        """Unhook borrowed slots without killing them: the workers stay
        warm for the owner's next batch; only the selector dies."""
        for slot in self.slots:
            if slot.result_r >= 0:
                try:
                    self.sel.unregister(slot.result_r)
                except (KeyError, ValueError):
                    pass
            slot.current = None
            slot.queue.clear()
        self.sel.close()

    def run(self) -> Tuple[List[FileOutcome], PoolStats]:
        with self.tracer.span(
            "pool.supervise",
            workers=len(self.slots), tasks=len(self.tasks),
        ):
            # Spawning happens *inside* the try: if spawn k of n raises
            # (fd exhaustion, fork failure), the ``finally`` still kills
            # and reaps workers 0..k-1 instead of leaking them.
            try:
                if self._managed:
                    for slot in self.slots:
                        self._spawn(slot)
                else:
                    self._attach()
                while self.done_count < len(self.tasks):
                    if not any(
                        not s.retired and s.alive for s in self.slots
                    ):
                        self._drain_in_process()
                        break
                    self._fill_idle()
                    for key, _mask in self.sel.select(self._next_timeout()):
                        self._drain(key.data)
                    self._check_watchdogs()
            finally:
                if self._managed:
                    self._shutdown()
                else:
                    self._detach()
            for slot in self.slots:
                with self.tracer.span(
                    "pool.worker",
                    slot=slot.slot, tasks=slot.tasks_done,
                    retired=slot.retired,
                ):
                    pass
        return [task.outcome() for task in self.tasks], self.stats


def run_pool_batch(
    items: Sequence[Tuple[str, str]],
    policy: BatchPolicy,
    *,
    schedule: Optional[FaultSchedule] = None,
    ambient: Optional[Dict[str, object]] = None,
    serialized_ambient: Optional[List[Dict[str, str]]] = None,
    tracer=NULL_TRACER,
    instrumentation=None,
    ops=None,
) -> Tuple[List[FileOutcome], PoolStats]:
    """Check ``(filename, text)`` pairs on the persistent worker pool.

    Returns the outcomes in input order plus the supervisor's
    :class:`PoolStats`.  Never raises for anything the inputs or the
    workers do — the containment contract of
    :func:`repro.service.check_batch` extends here.  With
    ``instrumentation``, worker attempts run under real per-task
    instrumentation and everything they see is stitched back into the
    coordinator bundle; ``ops`` receives worker lifecycle events.
    """
    if not items:
        return [], PoolStats(workers=0)
    supervisor = _Supervisor(
        items, policy,
        schedule=schedule,
        ambient=ambient if ambient is not None else {},
        serialized_ambient=(
            serialized_ambient if serialized_ambient is not None else []
        ),
        tracer=tracer,
        instrumentation=instrumentation,
        ops=ops,
    )
    return supervisor.run()


class PersistentPool:
    """Worker slots that outlive any single batch — the warm half of the
    ``fg serve`` daemon.

    Each :meth:`run_batch` borrows the slots for one supervised batch
    (losses, deadline kills, and respawns behave exactly as in
    :func:`run_pool_batch`) and hands the surviving warm workers back.
    Between batches :meth:`ensure` revives dead or retired seats and
    :meth:`flush` consumes idle chatter (heartbeats, late hellos) so the
    64 KiB pipe never fills while the daemon sits idle.

    The slot count is fixed at construction from ``policy.pool_workers``
    — per-request policies cannot resize the pool, which keeps the
    report's ``workers`` stat identical between a resumed replay and the
    uninterrupted run.
    """

    def __init__(self, policy: BatchPolicy, tracer=NULL_TRACER, *,
                 ops=None):
        self.policy = policy
        self.tracer = tracer
        self.ops = ops
        self.slots = [_WorkerSlot(i)
                      for i in range(max(1, policy.pool_workers))]
        self.closed = False
        #: Seats revived by :meth:`ensure` after their worker died *between*
        #: batches — mid-batch respawns are counted by each batch's
        #: :class:`PoolStats` instead; the daemon sums both for telemetry.
        self.idle_respawns = 0

    @property
    def alive_workers(self) -> int:
        return sum(1 for slot in self.slots if slot.alive)

    def worker_status(self) -> List[Dict[str, object]]:
        """Per-seat liveness for health/stats payloads (JSON-ready)."""
        return [
            {
                "slot": slot.slot,
                "alive": slot.alive,
                "retired": slot.retired,
                "pid": slot.proc.pid if slot.proc is not None else None,
                "tasks_done": slot.tasks_done,
                "rss_bytes": slot.rss_bytes,
            }
            for slot in self.slots
        ]

    def rss_bytes(self) -> int:
        """Aggregate last-sampled RSS of the live workers, in bytes.

        The serve daemon folds this into admission: requests shed under
        memory pressure instead of piling onto a pool the kernel is about
        to OOM-kill.  Workers that have not heartbeat an ``rss_bytes``
        yet contribute zero (optimistic — admission must not flap while
        the pool warms up).
        """
        return sum(
            slot.rss_bytes or 0 for slot in self.slots if slot.alive
        )

    def ensure(self) -> int:
        """Spawn a worker into every empty or dead seat; returns how many
        were (re)spawned."""
        if self.closed:
            raise RuntimeError("pool is closed")
        spawned = 0
        for slot in self.slots:
            if slot.alive:
                continue
            revival = slot.proc is not None
            if slot.proc is not None:
                try:
                    slot.proc.wait(timeout=0)
                except subprocess.TimeoutExpired:
                    slot.proc.kill()
                    slot.proc.wait()
                slot.proc = None
            _release_slot_fds(slot)
            try:
                _spawn_process(slot, self.policy)
                proto.write_frame_fd(slot.task_w, _init_frame(self.policy))
            except OSError:
                # A seat that cannot spawn right now stays empty; the
                # borrowed-slot supervisor treats it as lost and the next
                # ensure() tries again.
                continue
            spawned += 1
            if revival:
                self.idle_respawns += 1
            if self.ops is not None:
                self.ops.emit(
                    "worker-respawn" if revival else "worker-spawn",
                    slot=slot.slot, pid=slot.proc.pid,
                )
        return spawned

    def flush(self) -> None:
        """Consume idle-time frames (heartbeats, hellos) from every live
        worker.  Frames are parsed, not discarded raw: a hello that lands
        between batches must still mark its slot warmed."""
        for slot in self.slots:
            if slot.result_r < 0:
                continue
            while True:
                try:
                    chunk = os.read(slot.result_r, 65536)
                except (BlockingIOError, OSError):
                    break
                if chunk == b"":
                    break  # worker died; ensure() revives the seat
                try:
                    for frame in slot.reader.feed(chunk):
                        if frame.get("type") == "hello":
                            slot.warmed = True
                        elif frame.get("type") == "heartbeat":
                            rss = frame.get("rss_bytes")
                            if isinstance(rss, int) and rss > 0:
                                slot.rss_bytes = rss
                except proto.FrameError:
                    slot.reader = proto.FrameReader()
                    break

    def run_batch(
        self,
        items: Sequence[Tuple[str, str]],
        policy: BatchPolicy,
        *,
        schedule: Optional[FaultSchedule] = None,
        ambient: Optional[Dict[str, object]] = None,
        serialized_ambient: Optional[List[Dict[str, str]]] = None,
        instrumentation=None,
    ) -> Tuple[List[FileOutcome], PoolStats]:
        """One batch on the warm workers; same contract as
        :func:`run_pool_batch`."""
        if self.closed:
            raise RuntimeError("pool is closed")
        if not items:
            return [], PoolStats(workers=len(self.slots))
        self.ensure()
        self.flush()
        supervisor = _Supervisor(
            items, policy,
            schedule=schedule,
            ambient=ambient if ambient is not None else {},
            serialized_ambient=(
                serialized_ambient if serialized_ambient is not None else []
            ),
            tracer=self.tracer,
            slots=self.slots,
            instrumentation=instrumentation,
            ops=self.ops,
        )
        return supervisor.run()

    def close(self) -> None:
        """Shut every worker down: polite shutdown frame, bounded wait,
        then kill.  Idempotent."""
        if self.closed:
            return
        self.closed = True
        for slot in self.slots:
            if slot.task_w >= 0:
                try:
                    proto.write_frame_fd(slot.task_w, {"type": "shutdown"})
                except OSError:
                    pass
            _release_slot_fds(slot)
            if slot.proc is not None:
                try:
                    slot.proc.wait(timeout=2.0)
                except subprocess.TimeoutExpired:
                    slot.proc.kill()
                    slot.proc.wait()
                slot.proc = None

    def __enter__(self) -> "PersistentPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
