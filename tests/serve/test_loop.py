"""The daemon is one I/O loop: the engine thread owns sockets and lanes.

What only a single ``selectors`` loop promises, each pinned here:
no thread and no leaked descriptor per connection, pipelined frames
answered strictly in order, bounded buffering against a peer that never
reads, the ``timeout`` reply by deadline, and a loop that sleeps when
nothing happens.  Deadline-driven like the rest of the suite.
"""

from __future__ import annotations

import os
import socket
import sys
import threading
import time
from collections import deque

import numpy as np
import pytest

from repro.serve.daemon import RECV_BYTES, PlacementDaemon
from repro.serve.engine import PlacementEngine
from repro.serve.loadgen import synthetic_stream
from repro.serve.protocol import MAX_FRAME_BYTES, Query, encode_frame

from serve_harness import DEADLINE_S, FAST_HP, Client, serial_replay
from test_equivalence import SERVED

N_CONNECTIONS = 32


def _wait_until(predicate, what: str) -> None:
    """Poll ``predicate`` until true; fail at the suite's deadline."""
    deadline = time.monotonic() + DEADLINE_S
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.005)


def test_no_thread_per_connection(daemon):
    """32 tenants mid-stream run on the threads an idle daemon has:
    the caller's and the loop's, and no trainer at any width."""
    idle = set(threading.enumerate())
    engine = daemon.engine
    assert engine._thread in idle
    assert not any(t.name.startswith("serve-trainer") for t in idle)
    clients = [Client(daemon.address) for _ in range(N_CONNECTIONS)]
    try:
        for i, client in enumerate(clients):
            assert client.rpc({
                "op": "open", "tenant": f"t{i}", "seed": i,
                "hyperparams": FAST_HP,
            })["ok"]
            if i + 1 in (1, 8, N_CONNECTIONS):
                assert set(threading.enumerate()) == idle
        frames = synthetic_stream(seed=3, n=6)
        for frame in frames[:5]:
            for i, client in enumerate(clients):
                client.send({**frame, "tenant": f"t{i}"})
            for client in clients:
                assert client.recv()["ok"]
        for i, client in enumerate(clients):  # and one in flight each
            client.send({**frames[5], "tenant": f"t{i}"})
        assert len(daemon.connections) == N_CONNECTIONS
        assert set(threading.enumerate()) == idle
        for client in clients:
            assert client.recv()["seq"] == 5
    finally:
        for client in clients:
            client.close()


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def test_close_releases_every_descriptor():
    """Connections abandoned open by their clients die with the daemon."""

    def cycle():
        started = _open_fds()
        daemon = PlacementDaemon(port=0).start()
        socks = [
            socket.create_connection(daemon.address, timeout=DEADLINE_S)
            for _ in range(N_CONNECTIONS)
        ]
        try:
            for sock in socks:  # a reply proves the daemon holds its end
                sock.sendall(b'{"op": "ping"}\n{"op": "pi')
                assert sock.recv(4096).endswith(b"\n")
            assert len(daemon.connections) == N_CONNECTIONS
            daemon.close()
            assert _open_fds() == started + N_CONNECTIONS  # ours, still open
        finally:
            for sock in socks:
                sock.close()
            daemon.close()
        return started, _open_fds()

    cycle()  # whatever the process opens once and keeps (logging, ...)
    started, ended = cycle()
    assert ended == started


def test_pipelined_frames_are_answered_in_order(daemon, tmp_path):
    """One ``sendall`` of place×5, save, place×5, stats: replies in that
    order, and the checkpoint is the state after exactly five."""
    hp = {**FAST_HP, "train_interval": 4, "batch_size": 2,
          "initial_random_requests": 2}
    frames = [{**f, "tenant": "t"} for f in synthetic_stream(seed=21, n=10)]
    saved = tmp_path / "pipelined.npz"
    with Client(daemon.address) as client:
        assert client.rpc({
            "op": "open", "tenant": "t", "seed": 4, "hyperparams": hp,
        })["ok"]
        pipeline = (
            frames[:5]
            + [{"op": "save", "tenant": "t", "checkpoint": str(saved),
                "id": "save"}]
            + frames[5:]
            + [{"op": "stats", "id": "stats"}]
        )
        client.send_raw(b"".join(encode_frame(f) for f in pipeline))
        replies = [client.recv() for _ in pipeline]
    assert all(r["ok"] for r in replies), replies
    assert [r["id"] for r in replies] == [f["id"] for f in pipeline]
    placed = replies[:5] + replies[6:11]
    assert [r["seq"] for r in placed] == list(range(10))
    assert replies[-1]["tenants"]["t"]["seq"] == 10
    assert replies[-1]["tenants"]["t"]["train_events"] > 0

    assert [{k: r[k] for k in SERVED} for r in placed] == serial_replay(
        frames, seed=4, hyperparams=hp
    )
    # The offline agent checkpoints itself before serving index 5.
    offline = tmp_path / "offline.npz"
    serial_replay(frames[:6], seed=4, hyperparams=hp,
                  checkpoint_at=5, checkpoint_path=offline)
    with np.load(saved) as got, np.load(offline) as expected:
        assert sorted(got.files) == sorted(expected.files)
        assert int(got["requests_seen"][0]) == 5
        for key in expected.files:
            assert np.array_equal(got[key], expected[key]), key


def test_a_peer_that_never_reads_is_buffered_within_bounds(daemon):
    """Megabytes of pings from a client that reads nothing: the daemon
    holds one frame bound + one recv of it and one reply, stops reading,
    and serves everyone else."""
    ping = b'{"op": "ping"}\n'
    reply_bytes = len(encode_frame({"ok": True, "op": "ping"}))
    # Set before connecting, or it does not size the window: with room
    # for megabytes of replies the reply path may never fill, the daemon
    # keeps taking pings, and the send below times out on a daemon that
    # is merely busy (seen in two runs of eight on a loaded box).
    flood = socket.socket()
    flood.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    flood.settimeout(DEADLINE_S)
    flood.connect(daemon.address)
    flood.settimeout(0.5)
    chunk = ping * 4096
    sent = 0
    try:
        # Until the daemon pushes back: a send that cannot finish.
        with pytest.raises(socket.timeout):
            while sent < 256 * len(chunk):
                sent += flood.send(chunk)
        assert sent > 2 * MAX_FRAME_BYTES, "never got past the kernel"
        connection = max(daemon.connections, key=lambda c: c.buffered)
        bound = MAX_FRAME_BYTES + 2 + RECV_BYTES

        def within_bounds():
            assert connection.buffered <= bound
            assert len(connection.outbuf) <= reply_bytes

        within_bounds()
        assert connection.buffered > MAX_FRAME_BYTES  # it did stop reading
        with Client(daemon.address) as client:
            assert client.rpc({
                "op": "open", "tenant": "fast", "seed": 2,
                "hyperparams": FAST_HP,
            })["ok"]
            for frame in synthetic_stream(seed=2, n=30):
                assert client.rpc({**frame, "tenant": "fast"})["ok"]
                within_bounds()
    finally:
        flood.close()
    with Client(daemon.address) as client:
        assert client.rpc({"op": "ping"})["ok"]


class _StuckQueue(deque):
    """A lane queue that reads as empty while ``stuck``: the engine
    never takes from it, so whatever is queued there waits."""

    stuck = True

    def __bool__(self) -> bool:
        return not self.stuck and len(self) > 0


def test_timeout_reply_by_deadline():
    """A frame the engine does not get to by its deadline is answered
    ``timeout``; nothing else stalls, and the tenant's stream loses
    nothing.  (Nothing in the daemon parks a job any more, so the lane
    is made unservable from outside to reach the watchdog.)"""
    timeout_s = 0.2
    stuck_at = 12
    frames = [{**f, "tenant": "stuck"} for f in synthetic_stream(seed=8, n=40)]
    replies = []
    with PlacementDaemon(port=0, request_timeout_s=timeout_s) as daemon:
        with Client(daemon.address) as client, \
                Client(daemon.address) as other:
            for name, seed in (("stuck", 6), ("free", 7)):
                assert client.rpc({
                    "op": "open", "tenant": name, "seed": seed,
                    "hyperparams": FAST_HP,
                })["ok"]
            for frame in frames[:stuck_at]:
                replies.append(client.rpc(frame))
            # The daemon is idle between two rpcs: swap the lane's queue.
            stuck = daemon.engine.lanes["stuck"].queue = _StuckQueue()
            asked = time.monotonic()
            replies.append(client.rpc(frames[stuck_at]))
            waited = time.monotonic() - asked
            assert replies[-1]["error"] == "timeout", replies[-1]
            assert replies[-1]["id"] == frames[stuck_at]["id"]
            assert timeout_s <= waited < DEADLINE_S

            # Stuck is stuck; everyone else is served meanwhile.
            for frame in synthetic_stream(seed=9, n=10):
                assert other.rpc({**frame, "tenant": "free"})["ok"]
            stats = other.rpc({"op": "stats"})["tenants"]["stuck"]
            assert stats["queued"] == 1 and stats["seq"] == stuck_at

            stuck.stuck = False
            for frame in frames[stuck_at + 1:]:
                replies.append(client.rpc(frame))
    # The timed-out frame stayed queued and was served on release — only
    # its reply was dropped — so ``seq`` skips exactly that one and the
    # stream is still the serial replay of every frame sent.
    expected = serial_replay(frames, seed=6, hyperparams=FAST_HP)
    for index, (reply, want) in enumerate(zip(replies, expected)):
        if index == stuck_at:
            continue
        assert reply["ok"] and reply["seq"] == index, reply
        assert {k: reply[k] for k in SERVED} == want
    assert len(replies) == len(frames)


def test_idle_daemon_makes_no_loop_turns():
    """No traffic, no wake-ups: the loop sits in one ``select``."""
    daemon = PlacementDaemon(port=0)
    selector = daemon.engine.selector
    select, returns = selector.select, []

    def counting_select(timeout=None):
        events = select(timeout)
        returns.append(timeout)
        return events

    selector.select = counting_select
    with daemon:
        with Client(daemon.address) as client:
            assert client.rpc({"op": "ping"})["ok"]
        _wait_until(lambda: not daemon.connections, "the client's EOF")
        turns = len(returns)
        assert turns > 0
        assert not threading.Event().wait(0.3)
        assert len(returns) == turns
        # ... and it slept without a timeout to wake it.
        with Client(daemon.address) as client:
            assert client.rpc({"op": "ping"})["ok"]
        assert returns[turns] is None


def test_a_socket_frame_makes_no_event(daemon):
    """A frame the loop takes off a socket is answered through
    ``on_done`` and never waited on, so its job carries no
    ``threading.Event``; only ``submit()`` attaches one."""
    engine = daemon.engine
    dispatch, jobs = engine._dispatch, []

    def recording_dispatch(kind, payload):
        jobs.append(payload)
        dispatch(kind, payload)

    engine._dispatch = recording_dispatch
    frames = [{**f, "tenant": "t"} for f in synthetic_stream(seed=5, n=3)]
    with Client(daemon.address) as client:
        assert client.rpc({"op": "open", "tenant": "t", "seed": 0})["ok"]
        for frame in frames:
            assert client.rpc(frame)["ok"]
        assert client.rpc({"op": "ping"})["ok"]
    assert [job.query.op for job in jobs] == ["open", "place", "place",
                                              "place", "ping"]
    assert all(job.response["ok"] and job.done is None for job in jobs)

    submitted = engine.submit(Query(op="ping"))
    assert submitted.wait(DEADLINE_S) and submitted.response["ok"]
    assert jobs[-1] is submitted and submitted.done.is_set()


def test_submit_from_many_threads_never_loses_a_wake():
    """``submit()`` is the door for every thread that is not the loop.
    The loop sleeps without a timeout, so one lost wake would leave a
    job unresolved forever; each thread waits for each of its own."""
    engine = PlacementEngine()
    engine.start()
    unresolved = []

    def submitter():
        for _ in range(200):
            if not engine.submit(Query(op="ping")).wait(DEADLINE_S):
                unresolved.append(1)
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=submitter) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(DEADLINE_S * 2)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
        engine.stop()
    assert not unresolved
    assert not engine._thread.is_alive()
