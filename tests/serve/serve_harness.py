"""Shared helpers for the placement-daemon tests.

Everything here is deadline-driven — socket timeouts and bounded
``join``/``wait`` calls, never sleeps — so a wedged daemon fails the
suite in bounded time instead of hanging it.
"""

from __future__ import annotations

import json
import socket
from typing import Any, Dict, List, Optional, Tuple

from repro.core.agent import SibylAgent
from repro.core.hyperparams import SIBYL_DEFAULT
from repro.hss.devices import make_devices
from repro.hss.request import OpType, Request
from repro.hss.system import HybridStorageSystem
from repro.serve.protocol import encode_frame

#: Upper bound on any single blocking operation in this suite.
DEADLINE_S = 20.0

#: Hyper-parameter overrides that make training events frequent enough
#: for short test streams to exercise the async trainer path.
FAST_HP = {
    "train_interval": 20,
    "batch_size": 8,
    "buffer_capacity": 64,
    "initial_random_requests": 10,
}


class Client:
    """A synchronous NDJSON client: one frame out, one frame back."""

    def __init__(self, address: Tuple[str, int],
                 timeout: float = DEADLINE_S) -> None:
        self.sock = socket.create_connection(address, timeout=timeout)
        self.sock.settimeout(timeout)
        self.reader = self.sock.makefile("rb")

    def send(self, frame: Dict[str, Any]) -> None:
        """Write one request frame without waiting for the response."""
        self.sock.sendall(encode_frame(frame))

    def send_raw(self, payload: bytes) -> None:
        """Write raw bytes (malformed-frame fault injection)."""
        self.sock.sendall(payload)

    def recv(self) -> Dict[str, Any]:
        """Read one response frame (raises on EOF or timeout)."""
        line = self.reader.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        return json.loads(line)

    def rpc(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """One synchronous round-trip."""
        self.send(frame)
        return self.recv()

    def close(self) -> None:
        self.reader.close()
        self.sock.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def frame_to_request(frame: Dict[str, Any]) -> Request:
    """The Request a ``place`` frame describes (protocol semantics)."""
    return Request(
        timestamp=float(frame.get("t", 0.0)),
        op=OpType.parse(str(frame.get("rw", "R"))),
        page=frame["page"],
        size=frame.get("size", 1),
    )


def serial_replay(
    frames: List[Dict[str, Any]],
    seed: int = 0,
    hyperparams: Optional[Dict[str, Any]] = None,
    capacity_pages: int = 1024,
    config: str = "H&M",
    head: str = "c51",
    checkpoint_at: Optional[int] = None,
    checkpoint_path=None,
    uncommitted_at: Optional[int] = None,
) -> List[Dict[str, Any]]:
    """Offline serial reference: the daemon's bit-identity ground truth.

    Replays ``frames`` through a plain inline-training
    :class:`SibylAgent` with the runner's closed-loop clamp — no lane
    stacks, no threads, no serve package machinery.  When
    ``checkpoint_at`` is given, the agent checkpoints to
    ``checkpoint_path`` before serving that index and is then replaced
    by a *fresh* agent loaded from the checkpoint (what a daemon
    ``save`` + ``reload`` at the same stream position does).  The frame
    at ``uncommitted_at`` only reaches ``place_begin``: never committed,
    served or fed back, and absent from the returned list.
    """
    from dataclasses import replace

    hp = replace(SIBYL_DEFAULT, **(hyperparams or {}))
    devices = make_devices(config)
    hss = HybridStorageSystem(devices, [capacity_pages] * (len(devices) - 1) + [None])
    agent = SibylAgent(hyperparams=hp, head=head, seed=seed)
    agent.attach(hss)
    completion_s = 0.0
    out: List[Dict[str, Any]] = []
    for index, frame in enumerate(frames):
        if index == checkpoint_at:
            agent.save_checkpoint(checkpoint_path)
            agent = SibylAgent(hyperparams=hp, head=head, seed=seed)
            agent.attach(hss)
            agent.load_checkpoint(checkpoint_path)
        request = frame_to_request(frame)
        if index == uncommitted_at:
            agent.place_begin(request)
            continue
        action = agent.place(request)
        now = request.timestamp
        if now < completion_s:
            now = completion_s
        result = hss.serve(request, action, now=now)
        completion_s = now + result.latency_s
        agent.feedback(request, action, result)
        out.append({
            "action": action,
            "device": result.device,
            "latency_s": result.latency_s,
            "eviction_time_s": result.eviction_time_s,
        })
    return out
