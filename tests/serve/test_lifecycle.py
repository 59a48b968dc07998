"""Full daemon lifecycle over a real socket.

Start → serve N tenants concurrently → checkpoint hot-reload
mid-stream → drain → clean shutdown, asserting zero dropped or
duplicated responses and that post-reload placements are bit-identical
to a fresh offline agent loaded from the same checkpoint.
"""

from __future__ import annotations

import socket
import threading

import numpy as np
import pytest

from repro.serve.daemon import PlacementDaemon
from repro.serve.loadgen import synthetic_stream
from repro.serve.protocol import encode_frame

from serve_harness import DEADLINE_S, FAST_HP, Client, serial_replay

N_REQUESTS = 120
RELOAD_AT = 60


class _TenantRun(threading.Thread):
    """One tenant's synchronous lifecycle: open, stream, save+reload
    mid-stream, collecting every response."""

    def __init__(self, address, index: int, tmp_path) -> None:
        super().__init__(daemon=True)
        self.address = address
        self.index = index
        self.ckpt = str(tmp_path / f"tenant-{index}.npz")
        self.frames = synthetic_stream(seed=100 + index, n=N_REQUESTS)
        self.responses = []
        self.control = []
        self.error = None

    def run(self) -> None:
        try:
            with Client(self.address) as client:
                opened = client.rpc({
                    "op": "open",
                    "tenant": f"tenant-{self.index}",
                    "seed": self.index,
                    "hyperparams": FAST_HP,
                })
                assert opened["ok"], opened
                for i, frame in enumerate(self.frames):
                    if i == RELOAD_AT:
                        saved = client.rpc({
                            "op": "save",
                            "tenant": f"tenant-{self.index}",
                            "checkpoint": self.ckpt,
                        })
                        reloaded = client.rpc({
                            "op": "reload",
                            "tenant": f"tenant-{self.index}",
                            "checkpoint": self.ckpt,
                        })
                        self.control += [saved, reloaded]
                    self.responses.append(client.rpc(
                        {**frame, "tenant": f"tenant-{self.index}"}
                    ))
        except Exception as exc:  # surfaced by the main thread
            self.error = exc


def test_full_lifecycle_with_hot_reload(daemon, tmp_path):
    """Three concurrent tenants, reload mid-stream, drain, shutdown."""
    address = daemon.address
    runs = [_TenantRun(address, i, tmp_path) for i in range(3)]
    for run in runs:
        run.start()
    for run in runs:
        run.join(DEADLINE_S * 6)
        assert not run.is_alive(), "tenant stream wedged"
        assert run.error is None, run.error

    for run in runs:
        # Zero dropped, zero duplicated: the seq numbers of one
        # tenant's responses are exactly 0..N-1 in order.
        assert all(r["ok"] for r in run.responses)
        assert [r["seq"] for r in run.responses] == list(range(N_REQUESTS))
        assert all(c["ok"] for c in run.control)

        # Bit-identity through save + hot-reload: the daemon-served
        # stream equals a serial offline agent that checkpoints and is
        # freshly reloaded at the same stream position (float equality,
        # no tolerance — the fused path computes the same operations).
        expected = serial_replay(
            run.frames,
            seed=run.index,
            hyperparams=FAST_HP,
            checkpoint_at=RELOAD_AT,
            checkpoint_path=tmp_path / f"expected-{run.index}.npz",
        )
        got = [
            {k: r[k] for k in
             ("action", "device", "latency_s", "eviction_time_s")}
            for r in run.responses
        ]
        assert got == expected

    with Client(address) as client:
        # weights_version moved on reload, and the engine trained at
        # least once per tenant (FAST_HP makes events frequent).
        stats = client.rpc({"op": "stats"})
        assert stats["ok"]
        assert stats["counters"]["served"] == 3 * N_REQUESTS
        assert stats["counters"]["reloads"] == 3
        assert stats["counters"]["train_events"] > 0
        for row in stats["tenants"].values():
            assert row["seq"] == N_REQUESTS

        # Drain: quiescence barrier resolves promptly when idle.
        assert client.rpc({"op": "drain"})["ok"]

        # Clean shutdown: acknowledged, then the daemon goes away.
        assert client.rpc({"op": "shutdown"})["ok"]
    assert daemon._stopped.wait(DEADLINE_S), "daemon did not stop"


def test_save_and_reload_right_after_a_training_event(daemon, tmp_path):
    """``save`` then ``reload`` pipelined straight behind the placement
    that triggers a training event: answered in order, after the event
    (it ran inline in that placement), so both see its weights."""
    interval = FAST_HP["train_interval"]
    frames = synthetic_stream(seed=31, n=interval + 10)
    ckpt = tmp_path / "after-event.npz"
    control = [
        {"op": op, "tenant": "t", "checkpoint": str(ckpt), "id": op}
        for op in ("save", "reload")
    ]
    pipeline = (
        [{**f, "tenant": "t"} for f in frames[:interval]]
        + control
        + [{**f, "tenant": "t"} for f in frames[interval:]]
    )
    with Client(daemon.address) as client:
        opened = client.rpc({
            "op": "open", "tenant": "t", "seed": 2, "hyperparams": FAST_HP,
        })
        assert opened["ok"], opened
        client.send_raw(b"".join(encode_frame(f) for f in pipeline))
        replies = [client.recv() for _ in pipeline]
    assert all(r["ok"] for r in replies), replies
    assert [r["id"] for r in replies] == [f["id"] for f in pipeline]
    saved, reloaded = replies[interval:interval + 2]
    # One event so far, already in the weights the save wrote.
    assert saved["weights_version"] == opened["weights_version"] + 1
    assert reloaded["weights_version"] > 0
    placed = replies[:interval] + replies[interval + 2:]
    assert [r["seq"] for r in placed] == list(range(len(frames)))
    expected = serial_replay(
        frames, seed=2, hyperparams=FAST_HP, checkpoint_at=interval,
        checkpoint_path=tmp_path / "offline.npz",
    )
    keys = ("action", "device", "latency_s", "eviction_time_s")
    assert [{k: r[k] for k in keys} for r in placed] == expected
    with np.load(ckpt) as got, np.load(tmp_path / "offline.npz") as want:
        assert sorted(got.files) == sorted(want.files)
        for key in want.files:
            assert np.array_equal(got[key], want[key]), key


def test_reload_failure_leaves_serving_agent_untouched(daemon, tmp_path):
    """A bad reload degrades gracefully: same placements as no reload."""
    frames = synthetic_stream(seed=7, n=40)
    with Client(daemon.address) as client:
        assert client.rpc({
            "op": "open", "tenant": "t", "seed": 3, "hyperparams": FAST_HP,
        })["ok"]
        responses = []
        for i, frame in enumerate(frames):
            if i == 20:
                bad = tmp_path / "garbage.npz"
                bad.write_bytes(b"not a checkpoint")
                reply = client.rpc({
                    "op": "reload", "tenant": "t", "checkpoint": str(bad),
                })
                assert not reply["ok"]
                assert reply["error"] == "reload-failed"
            responses.append(client.rpc({**frame, "tenant": "t"}))
    expected = serial_replay(frames, seed=3, hyperparams=FAST_HP)
    got = [
        {k: r[k] for k in ("action", "device", "latency_s", "eviction_time_s")}
        for r in responses
    ]
    assert got == expected


def _close_within_deadline(daemon) -> None:
    closer = threading.Thread(target=daemon.close, daemon=True)
    closer.start()
    closer.join(DEADLINE_S)
    assert not closer.is_alive(), "close() hung"


def _assert_port_is_free(address) -> None:
    with socket.socket() as probe:
        probe.bind(address)


def test_close_before_start_returns_and_releases_the_port():
    """A daemon that was bound and never started has no loop to stop
    (``socketserver``'s ``shutdown()`` used to wait for one forever)."""
    daemon = PlacementDaemon(port=0)
    address = daemon.address
    _close_within_deadline(daemon)
    _assert_port_is_free(address)
    assert daemon._stopped.is_set()


def test_close_after_a_failed_start_releases_the_port(monkeypatch):
    daemon = PlacementDaemon(port=0)
    address = daemon.address

    def no_more_threads():
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(daemon.engine._thread, "start", no_more_threads)
    with pytest.raises(RuntimeError):
        daemon.start()
    _close_within_deadline(daemon)
    _assert_port_is_free(address)
