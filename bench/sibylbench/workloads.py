"""The four end-to-end workloads and their correctness checks.

Each workload is set up and measured in *repetitions*: a repetition is
one fresh set-up (timed as ``setup_s``) followed by a fixed amount of
work whose operations are timed one by one.  The run loop in
``run.py`` repeats until ``--seconds`` of wall time are used, so a
faster box measures more repetitions, never different work — which is
what keeps the simulated results and the ``result_digest`` exact.

Sizes are what the driver's per-run time cap allows (see README,
"Sizes"): the campaign shape, workload mix, device configuration and
pool width are the ones users run; only request and seed counts are
reduced.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from . import env
from .calibrate import Calibrator
from .stats import SpanLog

__all__ = [
    "Sizes",
    "FULL",
    "QUICK",
    "WORKLOADS",
    "Outcome",
    "BackendMismatch",
    "make_workload",
    "tenant_frames",
    "offline_replay",
]

CONFIG = "H&M"
#: rsrch_0 is 91% writes, hm_1 5%: an ``hss`` change that helps one op
#: type and hurts the other shows in the campaign workloads.
CAMPAIGN_TRACES = ("rsrch_0", "hm_1")
SWEEP_TRACE = "rsrch_0"
SWEEP_VALUES = (1e-5, 1e-4, 1e-3, 1e-2)
#: Result columns per cell (what ``req_per_s`` counts as simulated):
#: Fast-Only, five baselines, Sibyl, Oracle / Sibyl and its reference.
COMPARE_COLUMNS = 8
SWEEP_COLUMNS = 2
TENANTS = 2
#: The tenant's working set is 8x its fast device, so eviction runs
#: (loadgen's default of 512 pages never fills 1024).
SERVE_PAGES = 8192
SERVE_HOT_PAGES = 512
SERVE_CAPACITY = 1024

_STORE_LINE = re.compile(
    r"(\d+) cell\(s\) served from store, (\d+) newly stored"
)


@dataclass(frozen=True)
class Sizes:
    """How much work one repetition does (``warm_reruns``: at least)."""

    campaign_requests: int
    campaign_seeds: int
    warm_reruns: int
    serve_requests: int
    serve_warmup: int
    min_reps: int


FULL = Sizes(campaign_requests=3000, campaign_seeds=2, warm_reruns=4,
             serve_requests=10000, serve_warmup=500, min_reps=3)
QUICK = Sizes(campaign_requests=300, campaign_seeds=2, warm_reruns=2,
              serve_requests=300, serve_warmup=50, min_reps=1)


class BackendMismatch(RuntimeError):
    """``auto`` did not resolve to the compiled kernel."""


@dataclass
class Outcome:
    """Everything one run of one workload measured."""

    workload: str
    seed: int
    samples: Dict[str, List[float]]
    #: When each ``setup_s``/``op_ms``/``req_per_s`` sample was measured
    #: (``perf_counter`` start and end), for the calibrator to scale it.
    intervals: Dict[str, List[Tuple[float, float]]]
    calibrator: Calibrator
    sim_latency_norm: float
    sim_latency_us: float
    attempted: int
    failed: int
    failures: List[str]
    digest: str
    counts: Dict[str, float] = field(default_factory=dict)
    observed: Dict[str, float] = field(default_factory=dict)
    program_traces: List[Tuple[Path, Dict[str, Any]]] = field(default_factory=list)
    #: serve_closed only: every timed round trip of the untraced
    #: repetitions, pooled (the tail percentiles need all of them).
    round_trips_ms: List[float] = field(default_factory=list)


class Workload:
    """Set-up, repetitions and checks of one workload."""

    name = ""

    def __init__(self, seed: int, sizes: Sizes, scratch: Path,
                 spans: SpanLog) -> None:
        self.seed = seed
        self.sizes = sizes
        self.scratch = scratch
        self.spans = spans
        self.samples: Dict[str, List[float]] = {
            "setup_s": [], "op_ms": [], "op_ms_traced": [],
            "req_per_s": [], "peak_rss_mb": [], "cpu_s": [],
        }
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.program_traces: List[Tuple[Path, Dict[str, Any]]] = []
        self.intervals: Dict[str, List[Tuple[float, float]]] = {
            "setup_s": [], "op_ms": [], "req_per_s": [],
        }
        self.calibrator = Calibrator()
        #: ``perf_counter`` value at which the current repetition has
        #: used its share of the run (set by the run loop); only
        #: workloads with short operations look at it.
        self.rep_deadline = 0.0
        self._serial = 0

    # ------------------------------------------------------------ protocol
    def setup(self, traced: bool) -> None:
        """One fresh set-up; the run loop times it.

        ``traced`` says whether the repetition that follows is traced
        (a daemon has to be told at spawn).
        """
        with self.spans.span("setup.backend_check"):
            backend = env.backend_in_fresh_process(self.scratch)
        if backend != "cext":
            raise BackendMismatch(
                f"get_backend('auto') resolved to {backend!r}, not 'cext': "
                "refusing to publish numbers from a different engine "
                "(is gcc installed?)"
            )

    def repetition(self, traced: bool) -> None:
        """Measure one repetition."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Stop whatever a failed repetition left running."""

    def outcome(self) -> Outcome:
        """Run the end-of-run checks and hand over what was measured."""
        raise NotImplementedError

    # ------------------------------------------------------------- helpers
    def fail(self, message: str, operations: int = 1) -> None:
        # stderr as well: it is all a caller that keeps only the exit
        # status and the stderr tail gets to see.
        print(f"CHECK FAILED ({self.name}): {message}", file=sys.stderr, flush=True)
        self.failed += operations
        if len(self.failures) < 20:
            self.failures.append(message)

    def next_path(self, stem: str, suffix: str) -> Path:
        self._serial += 1
        return self.scratch / f"{stem}-{self._serial}{suffix}"

    def timed(self, key: str, value: float, start: float, end: float) -> None:
        """File one host-time sample with the interval it was measured over."""
        self.samples[key].append(value)
        self.intervals[key].append((start, end))

    def record(self, child: env.Child, requests: int, traced: bool) -> None:
        """File one finished operation under the right sample lists."""
        if traced:
            self.samples["op_ms_traced"].append(child.wall_s * 1e3)
        else:
            ended = child.started + child.wall_s
            self.timed("op_ms", child.wall_s * 1e3, child.started, ended)
            self.timed("req_per_s", requests / child.wall_s, child.started, ended)
            self.samples["peak_rss_mb"].append(child.maxrss_mb)
            self.samples["cpu_s"].append(child.cpu_s)


# ---------------------------------------------------------------- campaigns
class _Campaign(Workload):
    """A campaign process whose output must repeat byte for byte."""

    columns = COMPARE_COLUMNS
    cells = len(CAMPAIGN_TRACES)
    sampled_cell: Tuple[str, ...] = (SWEEP_TRACE, "Sibyl")

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.grid_path = self.scratch / "grid.json"
        self.store: Optional[Path] = None
        self.reference: Optional[Tuple[bytes, bytes]] = None
        self.store_hits = 0
        self.store_puts = 0

    @property
    def simulated_requests(self) -> int:
        s = self.sizes
        return s.campaign_requests * s.campaign_seeds * self.cells * self.columns

    def command(self, trace_path: Optional[Path]) -> List[str]:
        s = self.sizes
        cmd = [
            sys.executable, "-m", "repro", "compare",
            "--workloads", *CAMPAIGN_TRACES, "--config", CONFIG,
            "--requests", str(s.campaign_requests),
            "--seeds", str(s.campaign_seeds), "--seed", str(self.seed),
            "--store", str(self.store), "--json", str(self.grid_path),
        ]
        if trace_path is not None:
            cmd += ["--trace", str(trace_path)]
        return cmd

    def fresh_store(self) -> None:
        self.store = self.next_path("store", "")

    def campaign(self, label: str, traced: bool,
                 expect_store: Optional[Tuple[int, int]],
                 timed: bool = True) -> env.Child:
        """Run the campaign once and check exit, store line and output.

        Only ``timed`` runs count towards the observed store traffic.
        """
        out = self.scratch / "campaign.out"
        err = self.scratch / "campaign.err"
        trace_path = self.next_path("prog", ".trace.json") if traced else None
        with self.spans.span(f"{self.name}.{label}", traced=traced) as record:
            child = env.run_child(self.command(trace_path), out, err)
        if trace_path is not None:
            self.program_traces.append((trace_path, record))
        self.attempted += 1
        if child.returncode != 0:
            tail = err.read_text(errors="replace")[-400:]
            self.fail(f"{label}: exit {child.returncode}: {tail}")
            return child
        stdout, grid = out.read_bytes(), self.grid_path.read_bytes()
        if self.reference is None:
            self.reference = (stdout, grid)
        elif (stdout, grid) != self.reference:
            self.fail(f"{label}: stdout or JSON differs from the first run")
        if expect_store is not None:
            match = _STORE_LINE.search(err.read_text(errors="replace"))
            found = tuple(map(int, match.groups())) if match else None
            if found != expect_store:
                self.fail(f"{label}: store line reads {found}, "
                          f"expected {expect_store}")
            elif timed:
                self.store_hits += found[0]
                self.store_puts += found[1]
        return child

    # ------------------------------------------------------------- checks
    def sampled_cell_check(self, grid: Dict[str, Any]) -> None:
        """One cell re-run through serial ``run_policy`` must match exactly."""
        from repro.core.agent import SibylAgent
        from repro.sim.experiment import DEFAULT_WARMUP
        from repro.sim.runner import run_policy
        from repro.traces.workloads import make_trace

        with self.spans.span("check.sampled_cell"):
            trace = make_trace(SWEEP_TRACE, n_requests=self.sizes.campaign_requests,
                               seed=self.seed)
            serial = run_policy(SibylAgent(seed=self.seed), trace, config=CONFIG,
                                warmup_fraction=DEFAULT_WARMUP)
        node = grid
        for key in self.sampled_cell:
            node = node[key]
        band = node["avg_latency_s"]
        served = band["values"][band["seeds"].index(self.seed)]
        self.attempted += 1
        if served != serial.avg_latency_s:
            self.fail(
                f"sampled cell {'/'.join(self.sampled_cell)} seed {self.seed}: "
                f"campaign {served!r} != serial run_policy {serial.avg_latency_s!r}"
            )

    def sibyl_rows(self, grid: Dict[str, Any]) -> List[Dict[str, Any]]:
        return [grid[name]["Sibyl"] for name in CAMPAIGN_TRACES]

    def outcome(self) -> Outcome:
        norm = micros = float("nan")
        digest = ""
        if self.reference is not None:
            grid = json.loads(self.reference[1])
            self.sampled_cell_check(grid)
            rows = self.sibyl_rows(grid)
            norm = sum(r["latency"]["mean"] for r in rows) / len(rows)
            micros = 1e6 * sum(r["avg_latency_s"]["mean"] for r in rows) / len(rows)
            digest = hashlib.sha256(self.reference[1]).hexdigest()
        traffic = self.store_hits + self.store_puts
        s = self.sizes
        return Outcome(
            workload=self.name, seed=self.seed, samples=self.samples,
            intervals=self.intervals, calibrator=self.calibrator,
            sim_latency_norm=norm, sim_latency_us=micros,
            attempted=self.attempted, failed=self.failed,
            failures=self.failures, digest=digest,
            counts={
                "requests_per_lane": s.campaign_requests,
                "seeds": s.campaign_seeds,
                "cells": self.cells,
            },
            observed={
                "store.hit_ratio": self.store_hits / traffic if traffic else 0.0,
            },
            program_traces=self.program_traces,
        )


class CampaignCold(_Campaign):
    """The Fig. 9 lineup against an empty store."""

    name = "campaign_cold"

    def setup(self, traced: bool) -> None:
        super().setup(traced)
        self.fresh_store()

    def repetition(self, traced: bool) -> None:
        child = self.campaign("campaign", traced, expect_store=(0, self.cells))
        self.record(child, self.simulated_requests, traced)


class CampaignWarm(_Campaign):
    """The same command against the store its set-up populated."""

    name = "campaign_warm"

    def setup(self, traced: bool) -> None:
        super().setup(traced)
        self.fresh_store()
        self.campaign("populate", False, expect_store=(0, self.cells), timed=False)

    def repetition(self, traced: bool) -> None:
        # A rerun is a third of a second, so a repetition makes as many
        # as fit its share of the run: the run then needs only min_reps
        # populating set-ups, which cost ten reruns each.
        reruns = 0
        while (reruns < self.sizes.warm_reruns
               or time.perf_counter() < self.rep_deadline):
            child = self.campaign("rerun", traced, expect_store=(self.cells, 0))
            self.record(child, self.simulated_requests, traced)
            reruns += 1


class SibylSweep(_Campaign):
    """A learning-rate sweep: every lane is kernel-eligible, no baselines."""

    name = "sibyl_sweep"
    columns = SWEEP_COLUMNS
    cells = len(SWEEP_VALUES)
    sampled_cell = (str(SWEEP_VALUES[-1]),)  # 0.01 is the default rate

    def command(self, trace_path: Optional[Path]) -> List[str]:
        s = self.sizes
        cmd = [
            sys.executable, str(env.BENCH_DIR / "sibylbench" / "sweep_child.py"),
            "--values", *map(repr, SWEEP_VALUES), "--workload", SWEEP_TRACE,
            "--config", CONFIG, "--requests", str(s.campaign_requests),
            "--seeds", str(s.campaign_seeds), "--seed", str(self.seed),
            "--workers", str(env.PARALLEL), "--json", str(self.grid_path),
        ]
        if trace_path is not None:
            cmd += ["--trace", str(trace_path)]
        return cmd

    def repetition(self, traced: bool) -> None:
        child = self.campaign("sweep", traced, expect_store=None)
        self.record(child, self.simulated_requests, traced)

    def sibyl_rows(self, grid: Dict[str, Any]) -> List[Dict[str, Any]]:
        return [grid[str(value)] for value in SWEEP_VALUES]


# -------------------------------------------------------------------- serve
def tenant_frames(seed: int, tenant: int, n: int) -> List[Dict[str, Any]]:
    """Tenant ``tenant``'s deterministic ``place`` frames."""
    from repro.serve.loadgen import synthetic_stream

    name = f"tenant-{tenant}"
    return [
        {**frame, "tenant": name}
        for frame in synthetic_stream(seed + tenant, n, pages=SERVE_PAGES,
                                      hot_pages=SERVE_HOT_PAGES)
    ]


def offline_replay(seed: int, frames: List[Dict[str, Any]]) -> List[Tuple]:
    """The served stream of a serial offline agent answering ``frames``."""
    from repro.serve.lane import open_lane
    from repro.serve.protocol import parse_query

    lane = open_lane("offline", seed=seed, config=CONFIG, head="c51",
                     capacity_pages=[SERVE_CAPACITY], train_mode="sync")
    stream = []
    for frame in frames:
        request = parse_query(frame).fields["request"]
        action = lane.agent.place(request)
        seq, result = lane.complete(request, action)
        stream.append((seq, action, result.device, result.latency_s))
    return stream


def fast_only_latencies(frames: List[Dict[str, Any]]) -> List[float]:
    """Closed-loop simulated latency of each frame on an all-fast system."""
    from repro.hss.devices import make_devices
    from repro.hss.system import HybridStorageSystem
    from repro.serve.protocol import parse_query

    hss = HybridStorageSystem(make_devices(CONFIG), [None, None])
    completion = 0.0
    out = []
    for frame in frames:
        request = parse_query(frame).fields["request"]
        now = max(request.timestamp, completion)
        result = hss.serve(request, 0, now=now)
        completion = now + result.latency_s
        out.append(result.latency_s)
    return out


class _Tenant:
    """One closed-loop client connection."""

    def __init__(self, index: int, address: Tuple[str, int],
                 frames: List[Dict[str, Any]]) -> None:
        from repro.serve.protocol import encode_frame

        self.index = index
        self.name = f"tenant-{index}"
        self.payloads = [encode_frame(frame) for frame in frames]
        self.sock = socket.create_connection(address, timeout=30.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""
        self.cursor = 0
        self.sent_at = 0.0
        self.round_trips: List[float] = []
        self.received_at: List[float] = []
        self.replies: List[Dict[str, Any]] = []

    def send_next(self) -> None:
        payload = self.payloads[self.cursor]
        self.cursor += 1
        self.sent_at = time.perf_counter()
        self.sock.sendall(payload)

    def call(self, frame: Dict[str, Any]) -> Tuple[Dict[str, Any], float]:
        """One blocking control round trip (open)."""
        from repro.serve.protocol import encode_frame

        started = time.perf_counter()
        self.sock.sendall(encode_frame(frame))
        while b"\n" not in self.buffer:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            self.buffer += chunk
        line, _, self.buffer = self.buffer.partition(b"\n")
        return json.loads(line), time.perf_counter() - started


def closed_loop(tenants: List[_Tenant], stop: int) -> float:
    """Drive every tenant to frame ``stop``; one request outstanding each.

    A single ``selectors`` thread sends a tenant's next frame the moment
    its previous reply line is read, so tenants progress independently.
    Returns the wall time of the phase.
    """
    selector = selectors.DefaultSelector()
    live = 0
    started = time.perf_counter()
    try:
        for tenant in tenants:
            if tenant.cursor < stop:
                selector.register(tenant.sock, selectors.EVENT_READ, tenant)
                live += 1
                tenant.send_next()
        while live:
            events = selector.select(timeout=30.0)
            if not events:
                raise TimeoutError("no reply within 30 s")
            for key, _ in events:
                tenant = key.data
                chunk = tenant.sock.recv(65536)
                now = time.perf_counter()
                if not chunk:
                    raise ConnectionError("daemon closed the connection")
                tenant.buffer += chunk
                while True:
                    line, newline, rest = tenant.buffer.partition(b"\n")
                    if not newline:
                        break
                    tenant.buffer = rest
                    tenant.round_trips.append(now - tenant.sent_at)
                    tenant.received_at.append(now)
                    tenant.replies.append(json.loads(line))
                    if tenant.cursor < stop:
                        tenant.send_next()
                    else:
                        selector.unregister(tenant.sock)
                        live -= 1
    finally:
        selector.close()
    return time.perf_counter() - started


#: Equal-count parts a repetition's replies are cut into; the first
#: only supplies the starting edge of the second.
_WINDOWS = 10


def reply_windows(
    replies: List[Tuple[float, float]],
) -> List[Tuple[float, float, float, float]]:
    """``(req_per_s, p50_ms, start, end)`` of consecutive reply windows.

    ``replies`` are ``(received_at, round_trip_s)`` of every tenant.  A
    whole repetition is six seconds, as long as a slow spell of the box:
    one figure for all of it is dragged by a single spell and cannot be
    paired with the calibration bursts of its own moment, so the
    repetition is cut into equal-count windows (about 0.6 s each) and
    the run reports the median over all of them.  Training holds fall in
    every window alike, so they still count.
    """
    replies = sorted(replies)
    size = len(replies) // _WINDOWS
    if size < 1:
        return []
    out = []
    for low in range(size, len(replies) - size + 1, size):
        part = replies[low:low + size]
        first, last = replies[low - 1][0], part[-1][0]
        p50_ms = 1e3 * statistics.median(rt for _, rt in part)
        out.append((size / (last - first), p50_ms, first, last))
    return out


def _bucket_p50(histogram: Optional[Dict[str, Any]]) -> float:
    """Bucket-resolution median of a ``metrics`` op histogram summary."""
    if not histogram or not histogram.get("count"):
        return 0.0
    rank = max(1, round(0.5 * histogram["count"]))
    seen = 0
    for bound, n in sorted(
        ((float(b), n) for b, n in histogram["buckets"].items())
    ):
        seen += n
        if seen >= rank:
            return bound
    return float(histogram["max"])


class ServeClosed(Workload):
    """Two tenants in closed loop against a fresh ``repro serve`` daemon."""

    name = "serve_closed"

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.daemon: Optional[subprocess.Popen] = None
        self.daemon_started = 0.0
        self.daemon_trace: Optional[Path] = None
        self.stderr = None
        self.tenants: List[_Tenant] = []
        self.frames: List[List[Dict[str, Any]]] = []
        self.first_streams: Optional[List[List[Tuple]]] = None
        self.round_trips_ms: List[float] = []
        self.queue_ms: List[float] = []
        self.service_ms: List[float] = []
        self.open_ms: List[float] = []
        self.hold_p50: List[float] = []
        self.occupancy: List[float] = []
        self.counters: Dict[str, int] = {}

    @property
    def total(self) -> int:
        return self.sizes.serve_warmup + self.sizes.serve_requests

    def setup(self, traced: bool) -> None:
        super().setup(traced)
        with self.spans.span("setup.inputs"):
            self.frames = [
                tenant_frames(self.seed, i, self.total) for i in range(TENANTS)
            ]
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        self.daemon_trace = None
        if traced:
            self.daemon_trace = self.next_path("prog", ".trace.json")
            cmd += ["--trace", str(self.daemon_trace)]
        with self.spans.span("setup.daemon_spawn"):
            self.stderr = open(self.scratch / "daemon.err", "wb")
            self.daemon_started = time.perf_counter()
            self.daemon = env.spawn(cmd, subprocess.PIPE, self.stderr)
            banner = self.daemon.stdout.readline().decode()
        match = re.search(r"serving on (\S+):(\d+)", banner)
        if not match:
            raise RuntimeError(f"daemon did not announce a port: {banner!r}")
        address = (match.group(1), int(match.group(2)))
        with self.spans.span("setup.open"):
            self.tenants = [
                _Tenant(i, address, self.frames[i]) for i in range(TENANTS)
            ]
            for tenant in self.tenants:
                reply, took = tenant.call({
                    "op": "open", "tenant": tenant.name,
                    "seed": self.seed + tenant.index, "head": "c51",
                    "config": CONFIG, "capacity_pages": SERVE_CAPACITY,
                })
                if not reply.get("ok"):
                    raise RuntimeError(f"open rejected: {reply}")
                self.open_ms.append(took * 1e3)
        with self.spans.span("setup.warmup"):
            closed_loop(self.tenants, self.sizes.serve_warmup)

    def repetition(self, traced: bool) -> None:
        warmup = self.sizes.serve_warmup
        with self.spans.span(f"{self.name}.closed_loop", traced=traced) as record:
            closed_loop(self.tenants, self.total)
        metrics, _ = self.tenants[0].call({"op": "metrics"})
        peak_mb = env.tree_peak_rss_mb(self.daemon.pid)
        child = self.stop_daemon()
        if child.returncode != 0:
            tail = (self.scratch / "daemon.err").read_text(errors="replace")[-400:]
            self.fail(f"daemon exited {child.returncode} on Ctrl-C: {tail}")
        self.attempted += TENANTS * self.total
        streams = self.check_replies()
        if self.first_streams is None:
            self.first_streams = streams
        elif streams != self.first_streams:
            self.fail("served streams differ from the first repetition",
                      TENANTS * self.total)
        timed_ms = [
            1e3 * rt for tenant in self.tenants
            for rt in tenant.round_trips[warmup:]
        ]
        if traced:
            self.samples["op_ms_traced"].append(_median(timed_ms))
            self.program_traces.append((self.daemon_trace, record))
        else:
            self.round_trips_ms.extend(timed_ms)
            for rate, p50_ms, first, last in reply_windows([
                pair for tenant in self.tenants
                for pair in zip(tenant.received_at[warmup:],
                                tenant.round_trips[warmup:])
            ]):
                self.timed("op_ms", p50_ms, first, last)
                self.timed("req_per_s", rate, first, last)
            self.samples["peak_rss_mb"].append(max(peak_mb, child.maxrss_mb))
            self.samples["cpu_s"].append(child.cpu_s)
            for tenant in self.tenants:
                for reply in tenant.replies[warmup:]:
                    timing = reply.get("timing")
                    if timing:
                        self.queue_ms.append(timing["queue_ms"])
                        self.service_ms.append(timing["service_ms"])
            if metrics.get("ok"):
                self.hold_p50.append(
                    _bucket_p50(metrics["timings"].get("serve_hold_ms")))
                self.occupancy.append(metrics["trainer_occupancy"])
                self.counters = metrics["counters"]

    def check_replies(self) -> List[List[Tuple]]:
        """Every reply ok, in ``seq`` order; returns the served streams."""
        streams = []
        for tenant in self.tenants:
            stream = []
            for index, reply in enumerate(tenant.replies):
                if not reply.get("ok") or reply.get("seq") != index \
                        or reply.get("id") != index:
                    self.fail(f"{tenant.name} frame {index}: {reply}")
                    continue
                stream.append((reply["seq"], reply["action"],
                               reply["device"], reply["latency_s"]))
            if len(tenant.replies) != self.total:
                self.fail(f"{tenant.name}: {len(tenant.replies)} replies "
                          f"for {self.total} frames",
                          self.total - len(tenant.replies))
            streams.append(stream)
        return streams

    def stop_daemon(self) -> env.Child:
        """Ctrl-C the daemon and reap it; the tenants keep what they recorded.

        SIGINT, not the ``shutdown`` op: the op hands the teardown to a
        reaper thread that races the main thread's exit.  The reply is
        lost one time in ten, and under ``--trace`` both threads flush
        the tracer through the same tmp file, which one time in seven
        leaves a torn trace or exits 1.  Ctrl-C closes the daemon on its
        main thread, in order.
        """
        os.kill(self.daemon.pid, signal.SIGINT)
        for tenant in self.tenants:
            tenant.sock.close()
        proc, self.daemon = self.daemon, None
        child = env.reap(proc, self.daemon_started, timeout_s=20.0)
        proc.stdout.close()
        self.stderr.close()
        return child

    def teardown(self) -> None:
        if self.daemon is not None:
            self.daemon.kill()
            self.daemon.wait()
            self.daemon.stdout.close()
            self.daemon = None
        for tenant in self.tenants:
            tenant.sock.close()
        self.tenants = []
        if self.stderr is not None and not self.stderr.closed:
            self.stderr.close()

    def outcome(self) -> Outcome:
        warmup = self.sizes.serve_warmup
        norm = micros = float("nan")
        digest = ""
        if self.first_streams is not None:
            with self.spans.span("check.offline_replay"):
                offline = offline_replay(self.seed, self.frames[0])
            if offline != self.first_streams[0]:
                self.fail("tenant 0's served actions differ from the offline "
                          "serial SibylAgent replay", self.total)
            served = [
                row[3] for stream in self.first_streams for row in stream[warmup:]
            ]
            fast = [
                latency for frames in self.frames
                for latency in fast_only_latencies(frames)[warmup:]
            ]
            if served:
                micros = 1e6 * sum(served) / len(served)
                norm = (sum(served) / len(served)) / (sum(fast) / len(fast))
            digest = hashlib.sha256(
                json.dumps(self.first_streams).encode()
            ).hexdigest()
        served_total = self.counters.get("served", 0)
        forwards = self.counters.get("fused_forwards", 0)
        return Outcome(
            workload=self.name, seed=self.seed, samples=self.samples,
            intervals=self.intervals, calibrator=self.calibrator,
            sim_latency_norm=norm, sim_latency_us=micros,
            attempted=self.attempted, failed=self.failed,
            failures=self.failures, digest=digest,
            counts={"placements": TENANTS * self.total},
            observed={
                "serve.engine.queue_ms_p50": _median(self.queue_ms),
                "serve.engine.service_ms_p50": _median(self.service_ms),
                "serve.engine.hold_ms_p50": _median(self.hold_p50),
                "serve.engine.trainer_occupancy": _median(self.occupancy),
                "serve.engine.rounds_per_req":
                    self.counters.get("rounds", 0) / served_total
                    if served_total else 0.0,
                "serve.engine.fused_rows_per_forward":
                    self.counters.get("fused_rows", 0) / forwards
                    if forwards else 0.0,
                "serve.daemon.open_ms": _median(self.open_ms),
            },
            program_traces=self.program_traces,
            round_trips_ms=self.round_trips_ms,
        )


def _median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


WORKLOADS = {
    cls.name: cls
    for cls in (CampaignCold, CampaignWarm, SibylSweep, ServeClosed)
}


def make_workload(name: str, seed: int, sizes: Sizes, scratch: Path,
                  spans: SpanLog) -> Workload:
    """A workload writing only under ``scratch`` (created empty)."""
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    return WORKLOADS[name](seed, sizes, scratch, spans)
