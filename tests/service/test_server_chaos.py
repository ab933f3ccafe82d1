"""Server chaos mode: daemon-kill, client-disconnect, slow-loris.

Thin shims over :func:`repro.testing.run_server_chaos` — the harness
carries its own assertions (daemon survival, cancellation metrics, and
digest identity across rounds *and* across a SIGKILL + journal resume);
these tests pin the entry points CI and users call.
"""

import pytest

from repro.testing import SERVER_CHAOS_KINDS, run_server_chaos

pytestmark = pytest.mark.slow


def test_kind_catalog_is_stable():
    assert SERVER_CHAOS_KINDS == (
        "daemon-kill", "client-disconnect", "slow-loris", "memhog",
    )
    with pytest.raises(ValueError):
        run_server_chaos(kinds=("daemon-implosion",))


def test_connection_faults_leave_a_deterministic_daemon():
    """The in-process kinds only: a vanished client and a stalled one,
    then digest-identical rounds."""
    out = run_server_chaos(
        rounds=2, seed=3, kinds=("client-disconnect", "slow-loris"),
    )
    assert out["clean_digest"] != out["hang_digest"]  # the hang is visible
    assert out["metrics"]["server.cancelled"] >= 1
    assert out["metrics"]["server.idle_closed"] >= 1
    assert "resumed_digest" not in out


def test_daemon_kill_resumes_to_identical_digest():
    """SIGKILL mid-batch, then journal resume: the harness asserts the
    resumed digest equals the uninterrupted baseline's."""
    out = run_server_chaos(rounds=2, seed=0)
    assert out["resumed_digest"] == out["hang_digest"]
    assert out["rounds"] == 2
    assert out["kinds"] == list(SERVER_CHAOS_KINDS)


def test_read_accepted_keeps_frames_coalesced_into_one_chunk():
    """Both ``accepted`` frames of the client-disconnect kind can arrive
    in a single ``recv``; the harness must count both, not drop the
    second with a throwaway reader and then wait for it forever."""
    import socket

    from repro.service import proto
    from repro.testing import _read_accepted

    left, right = socket.socketpair()
    try:
        right.sendall(
            proto.encode_frame({"type": "accepted", "id": 1})
            + proto.encode_frame({"type": "accepted", "id": 2})
        )
        frames = _read_accepted(left, 2, timeout=2.0)
    finally:
        left.close()
        right.close()
    assert [frame["id"] for frame in frames] == [1, 2]
