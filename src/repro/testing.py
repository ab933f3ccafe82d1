"""Helpers for testing F_G programs (used by the test suite; public API).

These wrap the parse/typecheck/translate/evaluate pipeline with the calls a
test (or a downstream user's test) makes constantly, plus the deterministic
mutation fuzzer behind the crash-resilience suite
(``tests/properties/test_crash_resilience.py``): :func:`mutate_source`
corrupts a known-good program at the token level and :func:`run_fuzz`
asserts the fault-tolerant pipeline never lets anything but a
:class:`~repro.diagnostics.Diagnostic` escape.

:func:`run_chaos` is the batch-level counterpart — **chaos mode**: a
deterministic fault schedule (stage × fault-kind × file-index, derived from
one seed) is injected into a :func:`repro.service.check_batch` run, and the
harness asserts the batch always terminates, never loses a file's result,
and reports every injected fault exactly once.

:func:`run_server_chaos` lifts chaos mode to the ``fg serve`` daemon:
each round stands up a real daemon and attacks it with the
:data:`SERVER_CHAOS_KINDS` — a client that disconnects with requests
queued, a slow-loris connection that stalls mid-frame, and a SIGKILL of
the daemon itself mid-batch followed by a journal resume — asserting the
daemon survives (or recovers) every one and that the canonical report
digests are identical across rounds *and* across the crash boundary.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.diagnostics.errors import Diagnostic, TypeError_
from repro.diagnostics.limits import Limits
from repro.fg import ast as G
from repro.fg import evaluate as _fg_evaluate
from repro.fg import typecheck as _fg_typecheck
from repro.fg import verify_translation as _verify
from repro.syntax import parse_fg
from repro.systemf import ast as F


def run_src(source: str):
    """Parse, typecheck, translate, and evaluate F_G source."""
    return _fg_evaluate(parse_fg(source))


def check_src(source: str) -> Tuple[G.FGType, F.Term]:
    """Parse and typecheck F_G source; returns (fg_type, sf_term)."""
    return _fg_typecheck(parse_fg(source))


def verify_src(source: str):
    """Theorem 1/2 check on F_G source; returns (fg_type, sf_type)."""
    return _verify(parse_fg(source))


def reject_src(source: str) -> TypeError_:
    """Assert the F_G source is ill-typed; returns the error for inspection."""
    try:
        check_src(source)
    except TypeError_ as err:
        return err
    raise AssertionError(f"expected a type error, but program checked:\n{source}")


# ---------------------------------------------------------------------------
# Crash-resilience fuzzing
# ---------------------------------------------------------------------------

#: Known-good seed programs the mutation fuzzer corrupts.  Each exercises a
#: different slice of the language: concepts/models, where clauses,
#: associated types, same-type constraints, scoped models, fix/recursion.
FUZZ_SEEDS: Tuple[str, ...] = (
    r"""
concept Semigroup<t> { binary_op : fn(t, t) -> t; } in
concept Monoid<t> { refines Semigroup<t>; identity_elt : t; } in
let accumulate = /\t where Monoid<t>.
  fix (\accum : fn(list t) -> t.
    \ls : list t.
      if null[t](ls) then Monoid<t>.identity_elt
      else Monoid<t>.binary_op(car[t](ls), accum(cdr[t](ls)))) in
model Semigroup<int> { binary_op = iadd; } in
model Monoid<int> { identity_elt = 0; } in
accumulate[int](cons[int](1, cons[int](2, nil[int])))
""",
    r"""
concept Container<c> {
  types elem;
  empty : fn(c) -> bool;
  front : fn(c) -> elem;
} in
model Container<list int> {
  types elem = int;
  empty = null[int];
  front = car[int];
} in
let peek = /\c where Container<c>.
  \xs : c. Container<c>.front(xs) in
peek[list int](cons[int](7, nil[int]))
""",
    r"""
concept Eq<t> { eq : fn(t, t) -> bool; } in
model Eq<int> { eq = ieq; } in
let both = /\t, u where Eq<t>, Eq<u>, t == u.
  \x : t. \y : u. Eq<t>.eq(x, y) in
both[int, int](3)(3)
""",
    r"""
type pair = (int * bool) in
let first = \p : pair. (nth p 0) in
let swap = \p : pair. ((nth p 1), (nth p 0)) in
first((41, true))
""",
    r"""
let compose = /\a, b, c. \f : fn(b) -> c. \g : fn(a) -> b.
  \x : a. f(g(x)) in
let inc = \x : int. iadd(x, 1) in
compose[int, int, int](inc)(inc)(40)
""",
)


#: Replacement pool for token-swap mutations: keywords and symbols that
#: steer the parser into every construct's error paths.
_SWAP_POOL: Tuple[str, ...] = (
    "let", "in", "concept", "model", "where", "refines", "types", "fix",
    "if", "then", "else", "fn", "forall", "list", "nth", "use", "type",
    "(", ")", "{", "}", "[", "]", "<", ">", ";", ",", ".", "=", "==",
    "->", "/\\", "\\", ":", "*", "x", "t", "0", "999999999", "true",
)


def mutate_source(source: str, rng: random.Random) -> str:
    """One deterministic token-level mutation of ``source``.

    Operators (chosen by ``rng``): token deletion, token duplication,
    swapping a token for another token of the program, replacing a token
    with a random keyword/symbol, and span-preserving corruption (the token
    is overwritten in place, keeping every later position stable, which
    exercises diagnostics' position math on mangled input).
    """
    from repro.diagnostics.source import SourceText
    from repro.syntax.lexer import tokenize

    try:
        tokens = [t for t in tokenize(SourceText(source)) if t.kind != "EOF"]
    except Diagnostic:
        tokens = []
    if not tokens:
        return source + rng.choice(("(", ")", "\x00", "let", "@"))
    tok = tokens[rng.randrange(len(tokens))]
    start, end = tok.span.start.offset, tok.span.end.offset
    op = rng.randrange(5)
    if op == 0:  # delete
        return source[:start] + source[end:]
    if op == 1:  # duplicate
        return source[:end] + " " + source[start:end] + source[end:]
    if op == 2:  # swap with another token from the same program
        other = tokens[rng.randrange(len(tokens))]
        return source[:start] + other.text + source[end:]
    if op == 3:  # replace with a random keyword/symbol
        return source[:start] + rng.choice(_SWAP_POOL) + source[end:]
    # span-preserving corruption: same length, garbage content
    width = max(1, end - start)
    junk = "".join(rng.choice("~#$@!?%^&|") for _ in range(width))
    return source[:start] + junk[: end - start] + source[end:]


def run_fuzz(
    mutants: int = 500,
    seed: int = 0,
    *,
    verify: bool = True,
    limits: Optional[Limits] = None,
    max_errors: int = 20,
    trace: bool = False,
) -> Dict[str, object]:
    """Push ``mutants`` corrupted programs through the checking pipeline.

    Deterministic for a given ``(mutants, seed)``.  Each mutant runs
    lex → parse → typecheck → translate (→ verify); the contract under test
    is that :func:`repro.pipeline.check_source` *never* raises — every
    failure mode must surface as a diagnostic in the outcome's report.  On
    violation, raises :class:`AssertionError` carrying the reproducing
    mutant.  Returns counters (mutants run, still-well-typed, diagnosed)
    plus ``report_digest``, a SHA-256 over every mutant's rendered report.

    With ``trace=True`` each mutant runs under full instrumentation (fresh
    tracer, metrics, and explain log).  Instrumentation must be invisible
    to the language: the digest with ``trace=True`` equals the digest with
    ``trace=False`` (``tests/observability/test_fuzz_invariance.py``).
    """
    import hashlib

    from repro.pipeline import check_source

    rng = random.Random(seed)
    if limits is None:
        # Tight budgets keep pathological mutants fast while still proving
        # they surface as ResourceLimitError diagnostics.
        limits = Limits(max_check_depth=500, max_eval_steps=200_000)
    stats: Dict[str, object] = {"mutants": 0, "ok": 0, "diagnosed": 0}
    digest = hashlib.sha256()
    for k in range(mutants):
        base = FUZZ_SEEDS[k % len(FUZZ_SEEDS)]
        mutant = mutate_source(base, rng)
        for _ in range(rng.randrange(3)):  # 0-2 extra stacked mutations
            mutant = mutate_source(mutant, rng)
        instrumentation = None
        if trace:
            from repro.observability import (
                ExplainLog, Instrumentation, MetricsRegistry, Tracer,
            )

            instrumentation = Instrumentation(
                tracer=Tracer(), metrics=MetricsRegistry(),
                explain=ExplainLog(),
            )
        try:
            outcome = check_source(
                mutant,
                "<fuzz>",
                ext=bool(k % 2),
                max_errors=max_errors,
                limits=limits,
                verify=verify,
                instrumentation=instrumentation,
            )
        except Exception as exc:  # noqa: BLE001 — the property under test
            raise AssertionError(
                f"non-Diagnostic exception escaped the pipeline "
                f"(fuzz seed={seed}, iteration={k}, trace={trace}, "
                f"{type(exc).__name__}: {exc})\nmutant:\n{mutant}"
            ) from exc
        stats["mutants"] += 1
        if outcome.ok:
            stats["ok"] += 1
        else:
            stats["diagnosed"] += 1
        digest.update(outcome.report.render().encode("utf-8"))
        digest.update(b"\x00")
    stats["report_digest"] = digest.hexdigest()
    return stats


# ---------------------------------------------------------------------------
# Chaos mode: deterministic fault schedules over the batch service
# ---------------------------------------------------------------------------

def chaos_schedule(
    n_files: int,
    seed: int = 0,
    *,
    stages: Tuple[str, ...] = ("parse", "check"),
    kinds: Tuple[str, ...] = ("crash", "hang"),
    hang_s: float = 1.5,
    worker_kills: int = 0,
    memhogs: int = 0,
):
    """A deterministic fault schedule for ``n_files`` inputs.

    Roughly half the files get exactly one fault each — a random stage ×
    kind, firing either on every attempt (a deterministic fault the circuit
    breaker must handle) or only on attempt 0 (a transient fault a retry
    outruns).  With ``worker_kills > 0`` (pool mode), that many distinct
    files additionally get a :class:`~repro.service.WorkerKillSpec`: at the
    dispatch of the file's first attempt, SIGKILL the worker that received
    it.  With ``memhogs > 0``, up to that many of the *unfaulted* files get
    a transient (attempt-0) ``"memhog"`` fault — a runaway allocation the
    memory governor must contain as a ``"memory"`` outcome and a retry on a
    fresh worker must outrun.  Pure function of
    ``(n_files, seed, stages, kinds, worker_kills, memhogs)``.
    """
    from repro.service import FaultSchedule, FaultSpec, WorkerKillSpec

    rng = random.Random(seed)
    n_faulted = max(1, n_files // 2)
    indices = sorted(rng.sample(range(n_files), n_faulted))
    specs = tuple(
        FaultSpec(
            index=index,
            stage=rng.choice(stages),
            kind=rng.choice(kinds),
            attempts=rng.choice((None, frozenset({0}))),
        )
        for index in indices
    )
    if memhogs:
        # Memhogs land on files with no other fault, so the contract for
        # each attempt stays unambiguous (one scheduled fault, one
        # expected status).
        spare = [i for i in range(n_files) if i not in set(indices)]
        specs += tuple(
            FaultSpec(
                index=index,
                stage=rng.choice(stages),
                kind="memhog",
                attempts=frozenset({0}),
            )
            for index in sorted(rng.sample(spare, min(memhogs, len(spare))))
        )
    kills: Tuple = ()
    if worker_kills:
        kills = tuple(
            WorkerKillSpec(index=index)
            for index in sorted(
                rng.sample(range(n_files), min(worker_kills, n_files))
            )
        )
    return FaultSchedule(specs=specs, hang_s=hang_s, kills=kills)


def run_chaos(
    rounds: int = 2,
    seed: int = 0,
    *,
    files: Optional[List[Tuple[str, str]]] = None,
    jobs: int = 2,
    deadline_ms: float = 400.0,
    retries: int = 1,
    quarantine_after: int = 3,
    isolate: str = "none",
    pool_workers: int = 2,
    max_respawns: int = 4,
    worker_kills: int = 0,
    memhogs: int = 0,
    max_worker_mem_mb: Optional[float] = None,
    recycle_after_tasks: Optional[int] = None,
) -> Dict[str, object]:
    """Chaos mode: run a batch under an injected fault schedule, ``rounds``
    times, asserting the containment contract every time.

    Asserts (raising :class:`AssertionError` with the violating detail):

    - **termination with no lost results** — every input yields exactly one
      outcome, whatever was injected into it;
    - **every injected fault is reported exactly once** — each (file,
      attempt) the schedule targeted carries exactly its scheduled fault
      tags in its attempt record, and the attempt's status matches the
      fault kind (``crash``/``kill`` → crash with the injected marker;
      ``hang`` → deadline miss; a scheduled worker kill → a ``worker-lost``
      crash, which preempts any stage fault on the same attempt because
      the supervisor kills at dispatch, before the stage runs);
    - **determinism** — the canonical (timing-stripped) report bytes are
      identical across all ``rounds``.

    ``worker_kills`` requires ``isolate="pool"`` and schedules that many
    worker SIGKILLs (see :func:`chaos_schedule`).  Keep ``max_respawns``
    at or above the total number of scheduled worker deaths when asserting
    determinism: once the budget runs out, *where* the pool degrades to
    in-process execution depends on timing.

    ``memhogs`` schedules that many transient ``"memhog"`` faults (runaway
    allocations contained as ``"memory"`` outcomes and outrun by a retry);
    ``max_worker_mem_mb``/``recycle_after_tasks`` pass the memory governor
    through to the policy.  The governor knobs are stripped from the
    canonical digest, so ``report_digest`` is identical with the governor
    on or off — the invariance tests pin exactly that.

    Returns the final round's counters plus ``report_digest`` (SHA-256 of
    the canonical report) and, in pool mode, the supervisor's ``pool``
    stats block.
    """
    import hashlib

    from repro.service import BatchPolicy, RetryPolicy, check_batch

    if worker_kills and isolate != "pool":
        raise ValueError("worker_kills requires isolate='pool'")
    if files is None:
        files = [(f"<chaos{i}>", src) for i, src in enumerate(FUZZ_SEEDS)]
    schedule = chaos_schedule(
        len(files), seed, hang_s=max(0.2, deadline_ms * 3 / 1000.0),
        worker_kills=worker_kills, memhogs=memhogs,
    )
    policy = BatchPolicy(
        jobs=jobs,
        deadline_ms=deadline_ms,
        retry=RetryPolicy(max_retries=retries),
        quarantine_after=quarantine_after,
        isolate=isolate,
        pool_workers=pool_workers,
        max_respawns=max_respawns,
        max_worker_mem_mb=max_worker_mem_mb,
        recycle_after_tasks=recycle_after_tasks,
    )
    digests = []
    report = None
    for _ in range(rounds):
        report = check_batch(files, policy, fault_schedule=schedule)
        _assert_chaos_contract(report, files, schedule)
        digests.append(
            hashlib.sha256(report.canonical_json().encode()).hexdigest()
        )
    assert len(set(digests)) == 1, (
        f"chaos batch is nondeterministic across {rounds} rounds "
        f"(seed={seed}): digests {digests}"
    )
    rollup = report.rollup()
    return {
        "files": rollup["files"],
        "ok": rollup["ok"],
        "diagnostics": rollup["diagnostics"],
        "timeout": rollup["timeout"],
        "memory": rollup["memory"],
        "crash": rollup["crash"],
        "quarantined": rollup["quarantined"],
        "retries": rollup["retries"],
        "injected_specs": len(schedule.specs),
        "injected_kills": len(schedule.kills),
        "report_digest": digests[0],
        "pool": report.pool,
    }


def _assert_chaos_contract(report, files, schedule) -> None:
    """The chaos-mode invariants for one batch report."""
    assert len(report.files) == len(files), (
        f"batch lost results: {len(files)} inputs, "
        f"{len(report.files)} outcomes"
    )
    assert [o.index for o in report.files] == list(range(len(files))), (
        "batch outcomes out of order or missing indexes"
    )
    for outcome in report.files:
        assert outcome.attempts, f"{outcome.file}: no attempt was recorded"
        for record in outcome.attempts:
            expected = tuple(
                spec.tag for spec in
                schedule.for_attempt(outcome.index, record.attempt)
            )
            assert record.injected == expected, (
                f"{outcome.file} attempt {record.attempt}: injected faults "
                f"reported as {record.injected}, scheduled {expected}"
            )
            # The fault must actually have *fired*: an attempt with an
            # injected crash/kill ends as a crash carrying the chaos
            # marker; an injected hang ends as a deadline miss.  A
            # scheduled worker kill preempts everything — the supervisor
            # SIGKILLs at dispatch, so the attempt is a worker-lost crash
            # no matter what stage faults were also installed.
            killed = any(
                kill.applies(outcome.index, record.attempt)
                for kill in schedule.kills
            )
            if killed:
                assert record.status == "crash", (
                    f"{outcome.file} attempt {record.attempt}: scheduled "
                    f"worker kill not reported (status={record.status})"
                )
                assert record.fault == "worker-lost", (
                    f"{outcome.file} attempt {record.attempt}: scheduled "
                    f"worker kill recorded as {record.fault!r}, expected "
                    "'worker-lost'"
                )
                continue
            kinds = {tag.split(":", 1)[1] for tag in expected}
            if kinds & {"crash", "kill"}:
                assert record.status == "crash", (
                    f"{outcome.file} attempt {record.attempt}: injected "
                    f"crash not reported (status={record.status})"
                )
            elif "memhog" in kinds:
                assert record.status == "memory", (
                    f"{outcome.file} attempt {record.attempt}: injected "
                    f"memhog not contained as a memory fault "
                    f"(status={record.status})"
                )
                assert record.fault == "memory", (
                    f"{outcome.file} attempt {record.attempt}: memhog "
                    f"recorded as {record.fault!r}, expected 'memory'"
                )
            elif "hang" in kinds:
                assert record.status == "timeout", (
                    f"{outcome.file} attempt {record.attempt}: injected "
                    f"hang did not miss the deadline "
                    f"(status={record.status})"
                )
            else:
                assert record.status in ("ok", "diagnostics"), (
                    f"{outcome.file} attempt {record.attempt}: failed "
                    f"({record.status}) with no fault injected"
                )


# ---------------------------------------------------------------------------
# Server chaos: fault kinds aimed at the fg serve daemon itself
# ---------------------------------------------------------------------------

#: Chaos kinds for :func:`run_server_chaos`.  Unlike :data:`CHAOS_KINDS`
#: (which target a *worker attempt*), these target the daemon: kill the
#: daemon process mid-batch and resume from the journal; disconnect a
#: client with requests queued; stall a connection mid-frame forever;
#: run a batch whose scheduled runaway allocation ("memhog") the memory
#: governor must contain as a ``"memory"`` outcome without poisoning the
#: warm pool.
SERVER_CHAOS_KINDS: Tuple[str, ...] = (
    "daemon-kill", "client-disconnect", "slow-loris", "memhog",
)


def _serve_forever(policy, options):  # pragma: no cover — forked child
    """Fork target for the daemon-kill kind: serve until SIGKILLed."""
    from repro.service import Server

    Server(policy, options).serve()


def _read_accepted(sock, timeout: float = 10.0):
    """Read frames off ``sock`` until one ``accepted`` arrives."""
    from repro.service import proto

    sock.settimeout(timeout)
    reader = proto.FrameReader()
    while True:
        chunk = sock.recv(65536)
        if chunk == b"":
            raise AssertionError("daemon closed before accepting request")
        for frame in reader.feed(chunk):
            if frame.get("type") == "accepted":
                return frame
            if frame.get("type") == "error":
                raise AssertionError(f"daemon rejected request: {frame}")


def _await_eof(sock, timeout: float) -> bool:
    """True if the daemon closes ``sock`` within ``timeout`` seconds."""
    sock.settimeout(timeout)
    try:
        while True:
            if sock.recv(65536) == b"":
                return True
    except OSError:
        return False


def run_server_chaos(
    rounds: int = 2,
    seed: int = 0,
    *,
    kinds: Tuple[str, ...] = SERVER_CHAOS_KINDS,
    pool_workers: int = 2,
    deadline_ms: float = 600.0,
) -> Dict[str, object]:
    """Chaos mode for the ``fg serve`` daemon, ``rounds`` times over.

    Each round runs two daemons against the same request mix:

    1. An **in-process** daemon absorbs the ``client-disconnect`` kind (a
       client submits two slow batches, reads both ``accepted`` frames,
       and vanishes — the queued one must be cancelled, the in-flight one
       orphaned without poisoning the pool) and the ``slow-loris`` kind
       (a connection sends half a frame and stalls — the idle reaper must
       close it).  It then serves a clean batch and a chaos-hang batch
       whose report digests are the round's baseline, and drains via a
       ``shutdown`` request.
    2. A **forked** daemon takes the ``daemon-kill`` kind: the same hang
       batch is submitted, SIGKILL lands once health shows it in flight,
       and a ``resume_only`` replay of the journal must re-run it to a
       digest **byte-identical to the uninterrupted baseline** from the
       in-process daemon.

    Asserts daemon survival after every fault, the cancellation/idle-close
    metrics, and digest equality across rounds and across the crash.
    Returns the final round's digests and metric counts.
    """
    import multiprocessing
    import os
    import signal
    import tempfile
    import threading
    import time

    from repro.observability import Instrumentation, MetricsRegistry, Tracer
    from repro.service import (
        BatchPolicy,
        ConnectionLost,
        FaultSchedule,
        FaultSpec,
        ServeOptions,
        Server,
        check_remote,
        health,
        proto,
        request_shutdown,
    )
    from repro.service.client import connect

    unknown = set(kinds) - set(SERVER_CHAOS_KINDS)
    if unknown:
        raise ValueError(f"unknown server chaos kinds: {sorted(unknown)}")
    rng = random.Random(seed)
    files = [(f"<srvchaos{i}>", src) for i, src in enumerate(FUZZ_SEEDS)]
    # Pool-mode hangs only die by the supervisor's hard kill at
    # deadline + grace, so the hang must comfortably outlast both.
    hang_s = deadline_ms * 3 / 1000.0
    hang_schedule = FaultSchedule(
        specs=(FaultSpec(
            index=rng.randrange(len(files)), stage="check", kind="hang",
        ),),
        hang_s=hang_s,
    )
    slow_schedule = FaultSchedule(
        specs=(FaultSpec(index=0, stage="check", kind="hang"),),
        hang_s=hang_s,
    )
    memhog_schedule = FaultSchedule(
        specs=(FaultSpec(
            index=rng.randrange(len(files)), stage="check", kind="memhog",
            attempts=frozenset({0}),
        ),),
        hang_s=hang_s,
    )
    policy = BatchPolicy(
        deadline_ms=deadline_ms, isolate="pool", pool_workers=pool_workers,
    )
    results: List[Dict[str, object]] = []
    for _ in range(rounds):
        outcome: Dict[str, object] = {}
        with tempfile.TemporaryDirectory(
            prefix="fgsc", dir="/tmp"  # AF_UNIX paths must stay short
        ) as tmp:
            # ---- phase 1: in-process daemon -----------------------------
            metrics = MetricsRegistry()
            instrumentation = Instrumentation(
                tracer=Tracer(), metrics=metrics,
            )
            options = ServeOptions(
                socket_path=os.path.join(tmp, "fg.sock"),
                idle_timeout_s=(
                    0.4 if "slow-loris" in kinds else 10.0
                ),
            )
            server = Server(policy, options, instrumentation)
            summary_box: List[Dict[str, object]] = []
            thread = threading.Thread(
                target=lambda: summary_box.append(server.serve()),
                daemon=True,
            )
            thread.start()
            assert server.ready.wait(20.0), "daemon never became ready"
            loris = None
            if "slow-loris" in kinds:
                loris = connect(options.socket_path)
                # Half a health frame, then silence.
                loris.sendall(
                    proto.encode_frame({"type": "health"})[:5]
                )
            if "client-disconnect" in kinds:
                ghost = connect(options.socket_path)
                payload = proto.encode_frame({
                    "type": "batch",
                    "sources": [list(files[0])],
                    "schedule": slow_schedule.to_json(),
                })
                # Two slow requests: the executor is serial, so by the
                # time both are accepted at most one is in flight and the
                # other is provably still queued — its cancellation on
                # disconnect is deterministic.
                ghost.sendall(payload + payload)
                _read_accepted(ghost)
                _read_accepted(ghost)
                ghost.close()
                # The orphaned in-flight request still runs to completion;
                # wait it out so the baseline batches below don't queue
                # behind it into their own queue-wait deadline.
                settle = time.monotonic() + 30.0
                while time.monotonic() < settle:
                    snap = health(options.socket_path)
                    if not snap["queued"] and not snap["in_flight"]:
                        break
                    time.sleep(0.05)
                else:
                    raise AssertionError(
                        "ghost requests never drained after disconnect"
                    )
            clean = check_remote(
                options.socket_path, files, timeout=120.0,
            )
            assert clean.get("type") == "report", (
                f"clean batch did not complete after faults: {clean}"
            )
            hang = check_remote(
                options.socket_path, files,
                schedule_json=hang_schedule.to_json(), timeout=120.0,
            )
            assert hang.get("type") == "report", (
                f"hang batch did not complete: {hang}"
            )
            if "memhog" in kinds:
                mem = check_remote(
                    options.socket_path, files,
                    schedule_json=memhog_schedule.to_json(), timeout=120.0,
                )
                assert mem.get("type") == "report", (
                    f"memhog batch did not complete: {mem}"
                )
                mem_statuses = [
                    entry["status"]
                    for entry in mem["report"]["files"]
                ]
                assert "memory" in mem_statuses, (
                    f"memhog fault was not contained as a memory outcome: "
                    f"{mem_statuses}"
                )
                outcome["memhog_digest"] = mem["digest"]
            snapshot = health(options.socket_path)
            assert snapshot.get("status") == "ok", (
                f"daemon unhealthy after faults: {snapshot}"
            )
            if loris is not None:
                assert _await_eof(loris, 15.0), (
                    "slow-loris connection was never idle-closed"
                )
                loris.close()
            request_shutdown(options.socket_path)
            thread.join(timeout=30.0)
            assert not thread.is_alive(), "daemon failed to drain"
            assert summary_box, "daemon exited without a summary"
            if "client-disconnect" in kinds:
                assert metrics.counter("server.disconnects") >= 1, (
                    "client disconnect was not detected"
                )
                assert metrics.counter("server.cancelled") >= 1, (
                    "queued request of a vanished client was not cancelled"
                )
            if "slow-loris" in kinds:
                assert metrics.counter("server.idle_closed") >= 1, (
                    "slow-loris connection not reaped by the idle timeout"
                )
            outcome["clean_digest"] = clean["digest"]
            outcome["hang_digest"] = hang["digest"]
            outcome["served"] = summary_box[0]["served"]
            outcome["metrics"] = {
                name: metrics.counter(name)
                for name in (
                    "server.requests", "server.disconnects",
                    "server.cancelled", "server.idle_closed",
                )
            }
            # ---- phase 2: daemon-kill + journal resume ------------------
            if "daemon-kill" in kinds:
                kill_sock = os.path.join(tmp, "kill.sock")
                kill_journal = os.path.join(tmp, "kill.journal")
                ctx = multiprocessing.get_context("fork")
                child = ctx.Process(
                    target=_serve_forever,
                    args=(policy, ServeOptions(
                        socket_path=kill_sock, journal_path=kill_journal,
                    )),
                    daemon=True,
                )
                child.start()
                deadline = time.monotonic() + 20.0
                while time.monotonic() < deadline:
                    try:
                        health(kill_sock, timeout=1.0)
                        break
                    except Exception:
                        time.sleep(0.05)
                else:
                    raise AssertionError("forked daemon never came up")
                errors: List[BaseException] = []

                def _doomed_client() -> None:
                    try:
                        check_remote(
                            kill_sock, files,
                            schedule_json=hang_schedule.to_json(),
                            timeout=120.0,
                        )
                    except BaseException as exc:  # noqa: BLE001
                        errors.append(exc)

                doomed = threading.Thread(target=_doomed_client, daemon=True)
                doomed.start()
                deadline = time.monotonic() + 20.0
                while time.monotonic() < deadline:
                    if health(kill_sock, timeout=1.0).get("in_flight"):
                        break
                    time.sleep(0.02)
                else:
                    raise AssertionError("request never went in flight")
                os.kill(child.pid, signal.SIGKILL)
                child.join(timeout=10.0)
                doomed.join(timeout=30.0)
                assert errors and isinstance(errors[0], ConnectionLost), (
                    f"killed daemon should drop the client with "
                    f"ConnectionLost, got {errors!r}"
                )
                resume_summary = Server(policy, ServeOptions(
                    socket_path=kill_sock, journal_path=kill_journal,
                    resume_only=True,
                )).serve()
                resumed = resume_summary["resumed"]
                assert len(resumed) == 1, (
                    f"expected exactly one resumed request: {resume_summary}"
                )
                (resumed_digest,) = resumed.values()
                assert resumed_digest == outcome["hang_digest"], (
                    "resumed report digest diverged from the uninterrupted "
                    f"run: {resumed_digest} != {outcome['hang_digest']}"
                )
                outcome["resumed_digest"] = resumed_digest
        results.append(outcome)
    digest_keys = [k for k in results[0] if k.endswith("_digest")]
    for key in digest_keys:
        values = [r[key] for r in results]
        assert len(set(values)) == 1, (
            f"server chaos is nondeterministic across {rounds} rounds: "
            f"{key} = {values}"
        )
    final = dict(results[-1])
    final["rounds"] = rounds
    final["kinds"] = list(kinds)
    return final
