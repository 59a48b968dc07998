"""Deterministic open-loop multi-tenant load generator.

Drives a running placement daemon with ``tenants`` concurrent client
connections, each replaying a *deterministic* seeded query stream (the
sequences depend only on ``seed``, so every run asks the daemon the
exact same questions — the soak engine of the fault and lifecycle
tests, and CI's quick serve soak; the recorded serve numbers come from
``bench/run.py``'s ``serve_closed`` workload).

Open-loop means each client *sends* on its own schedule (pipelined
back-to-back by default, or paced by ``pace_s``) while a separate
reader thread drains responses — send rate does not adapt to response
latency, so queueing at the daemon is measured, not hidden.  Reported:
nearest-rank p50/p99 placement latency and sustained req/s across all
tenants.

Run standalone (spawns an in-process daemon when no ``--port``)::

    python -m repro.serve.loadgen --quick
"""

from __future__ import annotations

import argparse
import json
import socket
import threading
import time
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from .protocol import encode_frame

__all__ = ["synthetic_stream", "percentile", "run_loadgen", "main"]


def synthetic_stream(seed: int, n: int, pages: int = 512,
                     hot_pages: int = 64) -> List[Dict[str, Any]]:
    """A deterministic tenant query stream: ``n`` ``place`` frames.

    Seeded hot/cold page mix (70% of accesses hit a ``hot_pages``-page
    working set), 30% writes, sizes 1-4, timestamps spaced 0.1 ms — the
    same ``seed`` always yields the same frames, which is what lets the
    equivalence tests replay a load-generator run offline.
    """
    rng = np.random.default_rng(seed)
    frames = []
    for i in range(n):
        hot = rng.random() < 0.7
        page = int(rng.integers(0, hot_pages if hot else pages))
        frames.append({
            "op": "place",
            "id": i,
            "t": round(i * 1e-4, 10),
            "rw": "W" if rng.random() < 0.3 else "R",
            "page": page,
            "size": int(rng.integers(1, 5)),
        })
    return frames


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sequence."""
    if not sorted_values:
        return float("nan")
    rank = max(1, int(np.ceil(q / 100.0 * len(sorted_values))))
    return float(sorted_values[rank - 1])


class _TenantClient:
    """One tenant connection: open, pipelined sends, threaded reads."""

    def __init__(self, host: str, port: int, name: str, seed: int,
                 frames: List[Dict[str, Any]], pace_s: float,
                 timeout_s: float, head: str) -> None:
        self.name = name
        self.frames = frames
        self.pace_s = pace_s
        self.timeout_s = timeout_s
        self.send_at: Dict[int, float] = {}
        self.recv_at: Dict[int, float] = {}
        #: Server-reported per-request phase timings (milliseconds),
        #: from the ``timing`` field of each ``place`` response.
        self.service_ms: List[float] = []
        self.queue_ms: List[float] = []
        self.errors = 0
        self.failure: Optional[str] = None
        self.sock = socket.create_connection((host, port), timeout=timeout_s)
        self.reader = self.sock.makefile("rb")
        self._handshake(seed, head)
        self._send_thread = threading.Thread(
            target=self._sender, name=f"loadgen-send-{name}", daemon=True
        )
        self._recv_thread = threading.Thread(
            target=self._receiver, name=f"loadgen-recv-{name}", daemon=True
        )

    def _handshake(self, seed: int, head: str) -> None:
        self.sock.sendall(encode_frame({
            "op": "open", "tenant": self.name, "seed": seed, "head": head,
        }))
        reply = json.loads(self.reader.readline())
        if not reply.get("ok"):
            raise RuntimeError(f"open rejected: {reply}")

    def start(self) -> None:
        """Launch the sender and reader threads."""
        self._send_thread.start()
        self._recv_thread.start()

    def join(self) -> None:
        """Wait for the full stream to complete; close the socket."""
        deadline = time.monotonic() + self.timeout_s
        for thread in (self._send_thread, self._recv_thread):
            thread.join(max(0.0, deadline - time.monotonic()))
            if thread.is_alive():
                self.failure = self.failure or "timed out"
        self.reader.close()
        self.sock.close()

    def _sender(self) -> None:
        try:
            for frame in self.frames:
                payload = encode_frame({**frame, "tenant": self.name})
                self.send_at[frame["id"]] = time.perf_counter()
                self.sock.sendall(payload)
                if self.pace_s > 0:
                    time.sleep(self.pace_s)
        except OSError as exc:
            self.failure = f"send failed: {exc}"

    def _receiver(self) -> None:
        try:
            for frame in self.frames:
                line = self.reader.readline()
                now = time.perf_counter()
                if not line:
                    self.failure = "connection closed early"
                    return
                reply = json.loads(line)
                if reply.get("id") != frame["id"]:
                    self.failure = f"reply {reply.get('id')!r} out of order"
                    return
                if reply.get("ok"):
                    self.recv_at[reply["id"]] = now
                    timing = reply.get("timing")
                    if timing is not None:
                        self.service_ms.append(timing["service_ms"])
                        self.queue_ms.append(timing["queue_ms"])
                else:
                    self.errors += 1
        except OSError as exc:
            self.failure = f"recv failed: {exc}"

    def latencies(self) -> List[float]:
        """Per-request wire latencies (seconds) of answered queries."""
        return [
            self.recv_at[i] - self.send_at[i]
            for i in self.recv_at
            if i in self.send_at
        ]


def run_loadgen(
    host: Optional[str] = None,
    port: Optional[int] = None,
    tenants: int = 4,
    requests: int = 200,
    seed: int = 0,
    pace_s: float = 0.0,
    head: str = "c51",
    timeout_s: float = 120.0,
) -> Dict[str, Any]:
    """Drive a daemon with ``tenants`` deterministic streams.

    With no ``host``/``port`` an in-process daemon is spawned on an
    ephemeral port and torn down afterwards.  Returns the benchmark
    record: ``p50_ms``/``p99_ms`` *sojourn* latency (client wire time:
    queueing at the daemon included), ``service_p50/p99_ms`` and
    ``queue_p50/p99_ms`` separated out of the sojourn via the server's
    per-response ``timing`` breakdown, sustained ``req_s``, totals, and the
    daemon's own ``metrics`` op snapshot under ``server``.
    """
    daemon = None
    if host is None or port is None:
        from .daemon import PlacementDaemon

        daemon = PlacementDaemon(port=0).start()
        host, port = daemon.address
    server_metrics = None
    try:
        clients = [
            _TenantClient(
                host, port, f"tenant-{i}", seed + i,
                synthetic_stream(seed + i, requests),
                pace_s, timeout_s, head,
            )
            for i in range(tenants)
        ]
        for client in clients:
            client.start()
        for client in clients:
            client.join()
        server_metrics = _fetch_metrics(host, port, timeout_s)
    finally:
        if daemon is not None:
            daemon.close()
    failures = [
        f"{c.name}: {c.failure}" for c in clients if c.failure is not None
    ]
    latencies = sorted(
        lat for client in clients for lat in client.latencies()
    )
    answered = sum(len(c.recv_at) for c in clients)
    first_send = min(
        (min(c.send_at.values()) for c in clients if c.send_at),
        default=float("nan"),
    )
    last_recv = max(
        (max(c.recv_at.values()) for c in clients if c.recv_at),
        default=float("nan"),
    )
    elapsed = last_recv - first_send
    service_ms = sorted(s for c in clients for s in c.service_ms)
    queue_ms = sorted(s for c in clients for s in c.queue_ms)
    return {
        "tenants": tenants,
        "requests_per_tenant": requests,
        "answered": answered,
        "errors": sum(c.errors for c in clients),
        "failures": failures,
        "p50_ms": percentile(latencies, 50.0) * 1e3,
        "p99_ms": percentile(latencies, 99.0) * 1e3,
        "service_p50_ms": percentile(service_ms, 50.0),
        "service_p99_ms": percentile(service_ms, 99.0),
        "queue_p50_ms": percentile(queue_ms, 50.0),
        "queue_p99_ms": percentile(queue_ms, 99.0),
        "req_s": answered / elapsed if elapsed > 0 else float("nan"),
        "server": server_metrics,
    }


def _fetch_metrics(
    host: str, port: int, timeout_s: float
) -> Optional[Dict[str, Any]]:
    """One-shot ``metrics`` op over a fresh control connection.

    Best-effort: the load report must survive a daemon that died under
    load, so any failure returns ``None`` instead of raising.
    """
    try:
        with socket.create_connection((host, port), timeout=timeout_s) as sock:
            sock.sendall(encode_frame({"op": "metrics"}))
            reply = json.loads(sock.makefile("rb").readline())
    except (OSError, ValueError):
        return None
    if not reply.get("ok"):
        return None
    return {
        "uptime_s": reply.get("uptime_s"),
        "trainer_busy_s": reply.get("trainer_busy_s"),
        "trainer_occupancy": reply.get("trainer_occupancy"),
        "queue_depth": reply.get("queue_depth"),
        "counters": reply.get("counters"),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: run a load-generator pass, print JSON."""
    parser = argparse.ArgumentParser(
        description="Open-loop load generator for the placement daemon."
    )
    parser.add_argument("--host", default=None,
                        help="daemon host (default: spawn in-process)")
    parser.add_argument("--port", type=int, default=None,
                        help="daemon port (default: spawn in-process)")
    parser.add_argument("--tenants", type=int, default=4)
    parser.add_argument("--requests", type=int, default=200,
                        help="queries per tenant")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pace", type=float, default=0.0,
                        help="inter-send gap per tenant, seconds")
    parser.add_argument("--head", default="c51", choices=("c51", "dqn"))
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test sizing: 2 tenants x 60 requests")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write a Chrome-trace-event span file here")
    args = parser.parse_args(argv)
    tenants, requests = args.tenants, args.requests
    if args.quick:
        tenants, requests = 2, 60
    from ..obs.tracer import flush_tracer, install_tracer, tracer_from_env

    if args.trace:
        install_tracer(args.trace)
    else:
        tracer_from_env()
    record = run_loadgen(
        host=args.host,
        port=args.port,
        tenants=tenants,
        requests=requests,
        seed=args.seed,
        pace_s=args.pace,
        head=args.head,
    )
    flush_tracer()
    print(json.dumps(record, indent=2, sort_keys=True))
    return 1 if record["failures"] or record["errors"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
