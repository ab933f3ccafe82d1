"""Experiment ISO: isolation-wall overhead, subprocess vs pool vs daemon.

Times the same ``check_batch`` run over the ``examples/fg`` corpus under
the two process-isolation modes, plus the same corpus through a warm
``fg serve`` daemon.  The subprocess wall pays one interpreter spawn per
attempt; the pool spawns ``pool_workers`` warmed-up processes once
per batch and reuses them; the daemon keeps that pool alive *across*
batches, so ``serve.warm_request`` measures the fully amortized
steady-state cost — the three rows are the whole isolation trade-off
(``fg bench --compare`` pairs by name across records).

Rounds are pinned low via ``pedantic`` — every round forks real
processes, and the medians differ by integer factors, not jitter.
"""

import os
import tempfile
import threading
from pathlib import Path

from repro.service import (
    BatchPolicy,
    RetryPolicy,
    ServeOptions,
    Server,
    check_batch,
    check_remote,
    request_shutdown,
)

EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "fg"


def _corpus():
    return [
        (path.name, path.read_text())
        for path in sorted(EXAMPLES.glob("*.fg"))
    ]


def _policy(**overrides):
    return BatchPolicy(
        jobs=2, deadline_ms=30_000.0,
        retry=RetryPolicy(max_retries=0), **overrides,
    )


class TestIsolationWall:
    def test_batch_isolate_subprocess(self, benchmark):
        items = _corpus()
        report = benchmark.pedantic(
            check_batch, args=(items, _policy(isolate="subprocess")),
            rounds=5, iterations=1, warmup_rounds=1,
        )
        assert report.exit_code == 0

    def test_batch_isolate_pool(self, benchmark):
        items = _corpus()
        report = benchmark.pedantic(
            check_batch, args=(items, _policy(isolate="pool",
                                              pool_workers=2)),
            rounds=5, iterations=1, warmup_rounds=1,
        )
        assert report.exit_code == 0
        assert report.pool["respawns"] == 0

    def test_batch_pool_governed(self, benchmark):
        # Same pool batch with the memory governor armed: rlimit applied
        # at spawn, RSS sampled on every heartbeat, recycle thresholds
        # set far above real usage so no recycle fires.  The delta
        # against ``test_batch_isolate_pool`` is pure governor overhead.
        items = _corpus()
        report = benchmark.pedantic(
            check_batch,
            args=(items, _policy(
                isolate="pool", pool_workers=2,
                max_worker_mem_mb=1024.0, recycle_rss_mb=4096.0,
            )),
            rounds=5, iterations=1, warmup_rounds=1,
        )
        assert report.exit_code == 0
        assert report.pool["recycles"] == 0
        assert report.pool["respawns"] == 0

    def test_serve_warm_request(self, benchmark):
        items = _corpus()
        # Short /tmp prefix: AF_UNIX paths are length-limited.
        with tempfile.TemporaryDirectory(prefix="fgbp", dir="/tmp") as tmp:
            server = Server(
                _policy(isolate="pool", pool_workers=2),
                ServeOptions(socket_path=os.path.join(tmp, "fg.sock")),
            )
            thread = threading.Thread(target=server.serve, daemon=True)
            thread.start()
            assert server.ready.wait(30.0)
            try:
                def request():
                    response = check_remote(
                        server.options.socket_path, items,
                    )
                    assert response["type"] == "report"
                    return response

                response = benchmark.pedantic(
                    request, rounds=5, iterations=1, warmup_rounds=1,
                )
                assert response["exit_code"] == 0
            finally:
                request_shutdown(server.options.socket_path)
                thread.join(timeout=30.0)
