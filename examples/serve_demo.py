#!/usr/bin/env python3
"""Sibyl-as-a-service: drive the placement daemon over a socket.

Spawns an in-process :class:`repro.serve.daemon.PlacementDaemon` on an
ephemeral port and walks the wire protocol end-to-end:

1. two tenants open lanes with different seeds and stream placements
   concurrently — their inference fuses through one stacked forward,
   and each tenant's training events run inline on the daemon's one
   loop thread;
2. one tenant checkpoints and hot-reloads mid-stream (and survives a
   deliberately bad reload untouched);
3. the engine counters show the fusion and training that happened.

Everything here speaks plain newline-delimited JSON over TCP — the
same transcript works against ``python -m repro serve`` from any
language.

Run:  python examples/serve_demo.py
"""

import json
import socket
import tempfile
import threading
from pathlib import Path

from repro.serve.daemon import PlacementDaemon
from repro.serve.loadgen import synthetic_stream

N_REQUESTS = 80
RELOAD_AT = 40


class WireClient:
    """A minimal synchronous NDJSON client."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=30)
        self.wire = self.sock.makefile("rwb")

    def rpc(self, frame):
        self.wire.write((json.dumps(frame) + "\n").encode())
        self.wire.flush()
        return json.loads(self.wire.readline())

    def close(self):
        self.wire.close()
        self.sock.close()


def stream_tenant(client, name, seed, ckpt_dir):
    """Open a lane, stream placements, hot-reload halfway through."""
    opened = client.rpc({
        "op": "open", "tenant": name, "seed": seed,
        "hyperparams": {"train_interval": 25, "batch_size": 8,
                        "buffer_capacity": 64,
                        "initial_random_requests": 10},
    })
    assert opened["ok"], opened
    fast_placements = 0
    for i, frame in enumerate(synthetic_stream(seed=seed, n=N_REQUESTS)):
        if i == RELOAD_AT and ckpt_dir is not None:
            ckpt = str(Path(ckpt_dir) / f"{name}.npz")
            assert client.rpc({"op": "save", "tenant": name,
                               "checkpoint": ckpt})["ok"]
            reloaded = client.rpc({"op": "reload", "tenant": name,
                                   "checkpoint": ckpt})
            print(f"  {name}: hot-reloaded at seq {i} "
                  f"(weights_version {reloaded['weights_version']})")
            bad = client.rpc({"op": "reload", "tenant": name,
                              "checkpoint": ckpt + ".missing"})
            print(f"  {name}: bad reload rejected with "
                  f"{bad['error']!r}; lane untouched")
        reply = client.rpc({**frame, "tenant": name})
        assert reply["ok"] and reply["seq"] == i, reply
        fast_placements += reply["device"] == 0
    print(f"  {name}: {N_REQUESTS} placements, "
          f"{fast_placements} on the fast device")


def main() -> None:
    with PlacementDaemon(port=0) as daemon, \
            tempfile.TemporaryDirectory() as ckpt_dir:
        host, port = daemon.address
        print(f"daemon listening on {host}:{port}")

        clients = [WireClient(daemon.address) for _ in range(2)]
        print("\nstreaming two tenants through the shared engine:")
        threads = [
            threading.Thread(
                target=stream_tenant,
                args=(client, f"tenant-{i}", i,
                      ckpt_dir if i == 0 else None),
            )
            for i, client in enumerate(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        stats = clients[0].rpc({"op": "stats"})
        counters = stats["counters"]
        print("\nengine counters:")
        for key in ("served", "fused_forwards", "fused_rows",
                    "train_events", "reloads"):
            print(f"  {key:>15}: {counters[key]}")

        assert clients[0].rpc({"op": "drain"})["ok"]
        assert clients[0].rpc({"op": "shutdown"})["ok"]
        for client in clients:
            client.close()
    print("\ndaemon drained and shut down cleanly")


if __name__ == "__main__":
    main()
