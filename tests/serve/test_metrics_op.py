"""The ``metrics`` introspection op under concurrent load.

Contracts (ISSUE 10, satellite 3):

* counters are monotonic across snapshots taken while tenants stream;
* queue depth returns to zero after a drain barrier;
* the time a training event holds the loop is accounted exactly once
  per event — the ``serve_hold_ms`` histogram count equals the
  ``train_events`` counter, which equals the sum of the tenants' own;
* the wire shape of the ``metrics`` and ``stats`` replies — key sets,
  histogram summaries and their bucket bounds — is pinned.
"""

from __future__ import annotations

import threading

from repro.obs.metrics import DEFAULT_BUCKETS
from repro.serve.loadgen import synthetic_stream

from serve_harness import FAST_HP, Client

N_REQUESTS = 120
N_TENANTS = 3

COUNTERS = {
    "served", "errors", "rounds", "fused_forwards", "fused_rows",
    "max_fused_rows", "train_events", "reloads",
}
STATS_KEYS = {"ok", "op", "train_mode", "counters", "tenants"}
METRICS_KEYS = STATS_KEYS | {
    "uptime_s", "queue_depth", "trainer_busy_s", "trainer_occupancy",
    "timings", "blas_threads",
}
TENANT_KEYS = {
    "seq", "queued", "train_mode", "train_events", "weights_version",
    "completion_s",
}
SUMMARY_KEYS = {"count", "sum", "min", "max", "mean", "buckets", "overflow"}


class _Streamer(threading.Thread):
    """One tenant streaming its full synthetic request sequence."""

    def __init__(self, address, index: int) -> None:
        super().__init__(daemon=True)
        self.address = address
        self.name_ = f"tenant-{index}"
        self.frames = synthetic_stream(seed=200 + index, n=N_REQUESTS)
        self.seed = index
        self.error = None

    def run(self) -> None:
        try:
            with Client(self.address) as client:
                opened = client.rpc({
                    "op": "open", "tenant": self.name_,
                    "seed": self.seed, "hyperparams": FAST_HP,
                })
                assert opened["ok"], opened
                for frame in self.frames:
                    reply = client.rpc({**frame, "tenant": self.name_})
                    assert reply["ok"], reply
        except Exception as exc:  # surfaced by the main thread
            self.error = exc


def _metrics(client: Client) -> dict:
    reply = client.rpc({"op": "metrics"})
    assert reply["ok"], reply
    return reply


def test_metrics_under_concurrent_load(daemon):
    """Stream N tenants while polling ``metrics``; then drain and check
    the final accounting identities."""
    address = daemon.address
    streamers = [_Streamer(address, i) for i in range(N_TENANTS)]
    for s in streamers:
        s.start()

    with Client(address) as poller:
        served_seen = []
        while any(s.is_alive() for s in streamers):
            snap = _metrics(poller)
            served_seen.append(snap["counters"]["served"])
            assert snap["queue_depth"] >= 0
        for s in streamers:
            s.join()
            assert s.error is None, s.error

        # Counters are monotonic across every observed snapshot.
        assert served_seen == sorted(served_seen)

        assert poller.rpc({"op": "drain"})["ok"]
        final = _metrics(poller)

        # Queue depth returns to zero once the drain barrier resolves.
        assert final["queue_depth"] == 0

        counters = final["counters"]
        assert counters["served"] == N_TENANTS * N_REQUESTS
        assert counters["errors"] == 0
        # FAST_HP trains every 20 requests per tenant.
        assert counters["train_events"] > 0

        # Each event is counted once, where it ran: on the loop, inside
        # its tenant's placement.
        hold = final["timings"]["serve_hold_ms"]
        assert hold["count"] == counters["train_events"] == sum(
            row["train_events"] for row in final["tenants"].values()
        )

        # Every placement passed through both request-phase histograms.
        assert final["timings"]["serve_service_ms"]["count"] == counters["served"]
        assert final["timings"]["serve_queue_ms"]["count"] == counters["served"]

        # Trainer occupancy is the share of the loop's wall time spent
        # in training events.
        assert final["uptime_s"] > 0
        assert 0.0 < final["trainer_occupancy"] <= 1.0
        assert final["trainer_busy_s"] > 0.0
        assert "held_lanes" not in final and "workers" not in final


def test_metrics_shape_on_idle_daemon(daemon):
    """The op resolves on a fresh daemon with an empty but complete
    surface (no tenants, zero depth, empty timings)."""
    with Client(daemon.address) as client:
        snap = _metrics(client)
        assert snap["op"] == "metrics"
        assert snap["tenants"] == {}
        assert snap["queue_depth"] == 0
        assert snap["trainer_busy_s"] == 0.0
        assert isinstance(snap["timings"], dict)


def test_place_replies_carry_timing(daemon):
    """Each ok placement reply reports its queue/service split — the
    fields the load generator folds into its sojourn-time breakdown."""
    with Client(daemon.address) as client:
        opened = client.rpc({
            "op": "open", "tenant": "t0", "seed": 0, "hyperparams": FAST_HP,
        })
        assert opened["ok"], opened
        for frame in synthetic_stream(seed=7, n=10):
            reply = client.rpc({**frame, "tenant": "t0"})
            assert reply["ok"], reply
            timing = reply["timing"]
            assert timing["queue_ms"] >= 0.0
            assert timing["service_ms"] >= 0.0


def test_metrics_and_stats_wire_shape(daemon):
    """The replies ``bench/`` and clients read, key for key: only
    observed histograms appear, every summary has the same fields and
    the default bucket bounds, and the hold histogram counts the
    training events."""
    frames = synthetic_stream(seed=11, n=80)
    with Client(daemon.address) as client:
        opened = client.rpc({
            "op": "open", "tenant": "t0", "seed": 0, "hyperparams": FAST_HP,
        })
        assert opened["ok"], opened
        for frame in frames[:5]:  # before FAST_HP's first training event
            assert client.rpc({**frame, "tenant": "t0"})["ok"]
        early = _metrics(client)
        assert early["counters"]["train_events"] == 0
        assert set(early["timings"]) == {"serve_queue_ms", "serve_service_ms"}

        for frame in frames[5:]:
            assert client.rpc({**frame, "tenant": "t0"})["ok"]
        assert client.rpc({"op": "drain"})["ok"]
        final = _metrics(client)
        stats = client.rpc({"op": "stats"})

    assert set(final) == METRICS_KEYS
    assert set(stats) == STATS_KEYS
    assert set(final["counters"]) == set(stats["counters"]) == COUNTERS
    assert set(final["tenants"]["t0"]) == set(stats["tenants"]["t0"]) \
        == TENANT_KEYS
    timings = final["timings"]
    assert set(timings) == {"serve_queue_ms", "serve_service_ms", "serve_hold_ms"}
    for summary in timings.values():
        assert set(summary) == SUMMARY_KEYS
        assert [float(bound) for bound in summary["buckets"]] == list(
            DEFAULT_BUCKETS
        )
        assert sum(summary["buckets"].values()) + summary["overflow"] \
            == summary["count"]
    assert final["counters"]["train_events"] > 0
    assert final["counters"]["train_events"] == timings["serve_hold_ms"]["count"]
    assert timings["serve_queue_ms"]["count"] == len(frames)


def test_service_ms_covers_the_training_event_it_ran(daemon):
    """``service_ms`` runs to the end of the job's own placement — its
    commit, HSS serve and ``feedback()`` — so a reply whose placement
    ran a training event reports at least the time that event held the
    loop, and ``queue_ms + service_ms`` is the frame's sojourn inside
    the server."""
    frames = synthetic_stream(seed=13, n=80)
    checked = 0
    with Client(daemon.address) as client:
        opened = client.rpc({
            "op": "open", "tenant": "t0", "seed": 0, "hyperparams": FAST_HP,
        })
        assert opened["ok"], opened
        events, held_ms = 0, 0.0
        for frame in frames:
            reply = client.rpc({**frame, "tenant": "t0"})
            assert reply["ok"], reply
            snap = _metrics(client)
            if snap["counters"]["train_events"] == events:
                continue
            events = snap["counters"]["train_events"]
            hold = snap["timings"]["serve_hold_ms"]
            event_ms, held_ms = hold["sum"] - held_ms, hold["sum"]
            # both sides are rounded on the wire (4 and 6 decimals)
            assert reply["timing"]["service_ms"] >= event_ms - 1e-4
            checked += 1
    assert checked == events > 0
