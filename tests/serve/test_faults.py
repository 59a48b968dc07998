"""Fault injection: the daemon survives everything a client can do.

Each fault must yield a structured error response or a WARNING log —
never a crash, a dropped connection (unless the fault *is* the
dropped connection), or a wedged accept loop.  Every assertion is
bounded by socket timeouts; there are no sleeps.
"""

from __future__ import annotations

import json
import socket

import pytest

from repro.serve.loadgen import synthetic_stream
from repro.serve.protocol import MAX_FRAME_BYTES

from serve_harness import DEADLINE_S, FAST_HP, Client


def assert_alive(address) -> None:
    """The liveness probe: a fresh client round-trips a ping."""
    with Client(address) as client:
        assert client.rpc({"op": "ping"})["ok"]


def test_malformed_frames_get_structured_errors(daemon, caplog):
    """Garbage JSON, wrong types, unknown ops — all structured."""
    with caplog.at_level("WARNING", logger="repro.serve"):
        with Client(daemon.address) as client:
            reply = client.rpc({"op": "nonsense"})
            assert not reply["ok"] and reply["error"] == "unknown-op"

            client.send_raw(b"{this is not json}\n")
            reply = client.recv()
            assert not reply["ok"] and reply["error"] == "bad-json"

            client.send_raw(b"[1, 2, 3]\n")
            reply = client.recv()
            assert not reply["ok"] and reply["error"] == "bad-json"

            reply = client.rpc({"op": "place", "tenant": "t", "page": -1})
            assert not reply["ok"] and reply["error"] == "bad-request"

            reply = client.rpc({"op": "place", "tenant": "t",
                                "page": 1, "t": float("nan")})
            assert not reply["ok"] and reply["error"] == "bad-request"

            reply = client.rpc({"op": "open", "tenant": "t",
                                "hyperparams": {"warp_speed": 9}})
            assert not reply["ok"] and reply["error"] == "bad-request"

            reply = client.rpc({"op": "place", "tenant": "ghost", "page": 1})
            assert not reply["ok"] and reply["error"] == "unknown-tenant"

            # The connection survived every rejected frame.
            assert client.rpc({"op": "ping"})["ok"]
    assert any("rejected frame" in r.message for r in caplog.records)
    assert_alive(daemon.address)


def test_truncated_frame_then_disconnect(daemon, caplog):
    """EOF mid-frame: one WARNING, accept loop unharmed."""
    with caplog.at_level("WARNING", logger="repro.serve"):
        sock = socket.create_connection(daemon.address, timeout=DEADLINE_S)
        sock.sendall(b'{"op": "ping", "id": 1')  # no newline, then gone
        sock.close()
        assert_alive(daemon.address)


def test_oversized_frame_is_rejected(daemon):
    """A frame beyond MAX_FRAME_BYTES gets an error or the axe.

    The daemon answers ``bad-json`` and drops the connection as soon as
    its read hits the bound — mid-frame, from the client's side — so
    the rest of the frame races a closed socket, and the reset that
    follows may discard the reply before it is read.
    """
    with Client(daemon.address) as client:
        try:
            client.send_raw(b'{"op": "ping", "pad": "')
            client.send_raw(b"x" * (MAX_FRAME_BYTES + 16))
            client.send_raw(b'"}\n')
        except ConnectionError:
            pass
        try:
            reply = client.recv()
        except ConnectionError:
            pass
        else:
            assert not reply["ok"] and reply["error"] == "bad-json"
        # The stream is unframed from here; the daemon drops us ...
        with pytest.raises((ConnectionError, OSError)):
            client.rpc({"op": "ping"})
            client.rpc({"op": "ping"})
    # ... but only us.
    assert_alive(daemon.address)


def test_disconnect_mid_request(daemon, caplog):
    """Client vanishes with a request in flight: logged, not fatal."""
    with caplog.at_level("WARNING", logger="repro.serve"):
        with Client(daemon.address) as client:
            assert client.rpc({
                "op": "open", "tenant": "gone", "seed": 0,
                "hyperparams": FAST_HP,
            })["ok"]
        # Send a burst of placements and slam the connection shut
        # without reading a single response.
        sock = socket.create_connection(daemon.address, timeout=DEADLINE_S)
        for frame in synthetic_stream(seed=1, n=20):
            sock.sendall(
                (json.dumps({**frame, "tenant": "gone"}) + "\n").encode()
            )
        sock.close()
        # The daemon finishes or discards the work and stays up.
        assert_alive(daemon.address)
        with Client(daemon.address) as client:
            assert client.rpc({"op": "drain"})["ok"]


def test_slow_reading_client_does_not_block_others(daemon):
    """A client that never reads stalls only itself."""
    slow = socket.create_connection(daemon.address, timeout=DEADLINE_S)
    slow.sendall(b'{"op": "ping"}\n' * 50)  # responses pile up unread
    try:
        # Meanwhile a well-behaved tenant gets full service.
        with Client(daemon.address) as client:
            assert client.rpc({
                "op": "open", "tenant": "fast", "seed": 2,
                "hyperparams": FAST_HP,
            })["ok"]
            for frame in synthetic_stream(seed=2, n=30):
                reply = client.rpc({**frame, "tenant": "fast"})
                assert reply["ok"], reply
    finally:
        slow.close()
    assert_alive(daemon.address)


def test_checkpoint_faults(daemon, tmp_path, caplog):
    """Unloadable checkpoints and unwritable saves: errors, no crash."""
    with caplog.at_level("WARNING", logger="repro.serve"):
        with Client(daemon.address) as client:
            assert client.rpc({
                "op": "open", "tenant": "ckpt", "seed": 0,
                "hyperparams": FAST_HP,
            })["ok"]

            reply = client.rpc({
                "op": "reload", "tenant": "ckpt",
                "checkpoint": str(tmp_path / "missing.npz"),
            })
            assert not reply["ok"] and reply["error"] == "reload-failed"

            garbage = tmp_path / "garbage.npz"
            garbage.write_bytes(b"\x00" * 64)
            reply = client.rpc({
                "op": "reload", "tenant": "ckpt", "checkpoint": str(garbage),
            })
            assert not reply["ok"] and reply["error"] == "reload-failed"

            reply = client.rpc({
                "op": "save", "tenant": "ckpt",
                "checkpoint": str(tmp_path / "no" / "such" / "dir" / "x.npz"),
            })
            assert not reply["ok"] and reply["error"] == "checkpoint-failed"

            # The tenant still serves after all three failures.
            frame = {**synthetic_stream(seed=3, n=1)[0], "tenant": "ckpt"}
            assert client.rpc(frame)["ok"]
    assert any("reload failed" in r.message for r in caplog.records)
    assert_alive(daemon.address)


def test_duplicate_open_rejected(daemon):
    """Opening an existing tenant is an error, not a state reset."""
    with Client(daemon.address) as client:
        assert client.rpc({"op": "open", "tenant": "dup", "seed": 0})["ok"]
        reply = client.rpc({"op": "open", "tenant": "dup", "seed": 1})
        assert not reply["ok"] and reply["error"] == "tenant-exists"
    assert_alive(daemon.address)


@pytest.mark.parametrize("where", ["place_begin", "complete"])
def test_failing_placement_fails_only_its_tenant(where):
    """One tenant's lane raising costs that tenant one job, no more.

    Driven through the synchronous pump so the failing query and the
    other tenants' queries are provably in the same fused round.  The
    raise is injected before the agent sees the request
    (``place_begin``) or after it decided and before the HSS serves
    (``complete``).
    """
    from repro.serve.engine import PlacementEngine

    from serve_harness import serial_replay
    from test_equivalence import pump, submit_frame

    engine = PlacementEngine(train_mode="sync")
    names = ["a", "bad", "c"]
    n, fail_at = 60, 25
    streams = {
        name: synthetic_stream(seed=60 + i, n=n)
        for i, name in enumerate(names)
    }
    for i, name in enumerate(names):
        job = submit_frame(engine, {
            "op": "open", "tenant": name, "seed": i, "hyperparams": FAST_HP,
        })
        pump(engine)
        assert job.response["ok"], job.response

    lane = engine.lanes["bad"]
    target = lane.agent if where == "place_begin" else lane

    def failing_once(*args):
        delattr(target, where)  # the class's method shows through again
        raise RuntimeError("injected placement failure")

    replies = {name: [] for name in names}
    for step in range(n):
        if step == fail_at:
            setattr(target, where, failing_once)
        wave = [
            (name, submit_frame(
                engine, {**streams[name][step], "tenant": name}
            ))
            for name in names
        ]
        pump(engine)
        for name, job in wave:
            assert job.done.is_set()
            replies[name].append(job.response)

    # The failing job, and only it, is answered with a structured error;
    # the failing tenant's later queries are served, seq unbroken.
    failed = replies["bad"].pop(fail_at)
    assert not failed["ok"] and failed["error"] == "internal-error"
    assert failed["id"] == streams["bad"][fail_at]["id"]
    assert all(r["ok"] for rs in replies.values() for r in rs)
    assert engine.counters["errors"] == 1
    assert engine.counters["served"] == len(names) * n - 1
    assert [r["seq"] for r in replies["bad"]] == list(range(n - 1))

    keys = ("action", "device", "latency_s", "eviction_time_s")
    for i, name in enumerate(names):
        frames = list(streams[name])
        if name == "bad":
            if where == "complete":
                continue  # its agent saw the failed query: no replay promised
            # Failed before the agent saw it: the stream of an agent
            # that was never sent the query.
            del frames[fail_at]
        assert [r["seq"] for r in replies[name]] == list(range(len(frames)))
        assert [
            {k: r[k] for k in keys} for r in replies[name]
        ] == serial_replay(frames, seed=i, hyperparams=FAST_HP)



def _fail_one_stacked_forward(names, n, arm_at):
    """Drive ``names`` through the synchronous pump, one frame each per
    round, with the group stack's ``best_actions`` raising the first
    time it runs from round ``arm_at`` on — so in a round where some
    lane missed its memo.  Returns the engine, the streams, every
    tenant's replies, the failed round and the fused-forward count
    when it failed."""
    from repro.serve.engine import PlacementEngine

    from test_equivalence import pump, submit_frame

    engine = PlacementEngine(train_mode="sync")
    streams = {
        name: synthetic_stream(seed=70 + i, n=n)
        for i, name in enumerate(names)
    }
    for i, name in enumerate(names):
        job = submit_frame(engine, {
            "op": "open", "tenant": name, "seed": i, "hyperparams": FAST_HP,
        })
        pump(engine)
        assert job.response["ok"], job.response

    engine._ensure_groups()
    stack = engine._lane_group[names[0]][0].stack
    assert all(engine._lane_group[name][0].stack is stack for name in names)
    failures = []

    def failing_once(obs):
        del stack.best_actions  # the class's method shows through again
        failures.append((step, engine.counters["fused_forwards"]))
        raise RuntimeError("injected forward failure")

    replies = {name: [] for name in names}
    for step in range(n):
        if step == arm_at:
            stack.best_actions = failing_once
        wave = [
            (name, submit_frame(
                engine, {**streams[name][step], "tenant": name}
            ))
            for name in names
        ]
        pump(engine)
        for name, job in wave:
            assert job.done.is_set()
            replies[name].append(job.response)
    ((failed_at, forwards),) = failures
    return engine, streams, replies, failed_at, forwards


def test_failing_stacked_forward_fails_only_its_round():
    """A raise in what a round shares — the stacked forward — answers
    every job of that round with ``internal-error`` and costs nothing
    more: each tenant is served again from its next frame, and its
    stream is that of an agent which began the failed placement and
    never committed it (the next ``place_begin`` replaces the dropped
    decision).
    """
    from serve_harness import serial_replay

    names, n = ["a", "b", "c"], 60
    engine, streams, replies, failed_at, _ = _fail_one_stacked_forward(
        names, n, arm_at=25
    )
    for name in names:
        failed = replies[name].pop(failed_at)
        assert not failed["ok"] and failed["error"] == "internal-error"
        assert failed["id"] == streams[name][failed_at]["id"]
    assert all(r["ok"] for rs in replies.values() for r in rs)
    assert engine.counters["errors"] == len(names)
    assert engine.counters["served"] == len(names) * (n - 1)

    keys = ("action", "device", "latency_s", "eviction_time_s")
    for i, name in enumerate(names):
        assert [r["seq"] for r in replies[name]] == list(range(n - 1))
        assert [{k: r[k] for k in keys} for r in replies[name]] == serial_replay(
            streams[name], seed=i, hyperparams=FAST_HP,
            uncommitted_at=failed_at,
        )


def test_fusion_resumes_after_a_failed_stacked_forward():
    """The failed round leaves nothing queued in its group: the rounds
    after it fuse again instead of each lane running its own forward."""
    engine, _, _, _, forwards = _fail_one_stacked_forward(
        ["a", "b", "c"], n=60, arm_at=25
    )
    assert engine.counters["fused_forwards"] > forwards
