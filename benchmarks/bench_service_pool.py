"""Experiment ISO: process-isolation overhead, pool vs governed pool.

Times the same ``check_batch`` run over the ``examples/fg`` corpus on the
supervised worker pool, once plain and once with the memory governor
armed.  The pool spawns ``pool_workers`` warmed-up processes once per
batch and reuses them; the governed row adds the per-worker rlimit and
heartbeat RSS sampling, so the pair prices the governor.  The daemon,
which keeps the pool alive *across* batches, is timed over the same
corpus and policy by the ``serve.warm_request`` row that
``benchmarks/conftest.py`` adds to the record — together the three rows
are the whole isolation trade-off (``fg bench --compare`` pairs by name
across records).

Rounds are pinned low via ``pedantic`` — every round forks real
processes.
"""

from pathlib import Path

from repro.service import BatchPolicy, RetryPolicy, check_batch

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
