"""Per-layer probes: time each layer's public functions from outside.

Every probe calls a public function of one module on the benchmark's
own inputs (the campaign traces at the campaign size, the serve
workload's tenant stream) and reports a unit cost; counts come from
``run_lanes(stats=)`` and repeat exactly.  Probes do not depend on
which workload the traced run belongs to, so the same unit costs price
every workload's budget table.
"""

from __future__ import annotations

import dataclasses
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from . import env
from .stats import SpanLog
from .workloads import (
    CAMPAIGN_TRACES,
    CONFIG,
    SERVE_CAPACITY,
    SWEEP_TRACE,
    TENANTS,
    Sizes,
    offline_replay,
    tenant_frames,
)

__all__ = ["run_probes"]

#: ``train_interval`` no stream reaches: the training gate never opens.
_NEVER = 2 ** 62
#: Lanes of the lockstep and fused-training probes (a 4-seed cell).
_LANES = 4
#: Rows of the fused-forward probe.
_FUSED_ROWS = 8
#: Stream prefix the serve-side probes replay.
_SERVE_PROBE_REQUESTS = 3000
#: Cell size that yields a real result grid for the aggregate / render /
#: store probes (their cost depends on the grid's shape, not on this).
_GRID_REQUESTS = 300


def _median_s(fn: Callable[[], Any], repeats: int = 3) -> float:
    walls = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - started)
    return statistics.median(walls)


def _trivial_cell(index: int) -> int:
    """A cell that costs nothing, so only fan-out overhead is left."""
    return index


class _Probes:
    def __init__(self, seed: int, sizes: Sizes, scratch: Path,
                 spans: SpanLog) -> None:
        from repro.sim.experiment import DEFAULT_WARMUP
        from repro.traces.workloads import make_trace

        self.seed = seed
        self.warmup = DEFAULT_WARMUP
        self.sizes = sizes
        self.scratch = scratch
        self.spans = spans
        self.n = sizes.campaign_requests
        self.traces = {
            name: make_trace(name, n_requests=self.n, seed=seed)
            for name in CAMPAIGN_TRACES
        }
        serve_n = min(_SERVE_PROBE_REQUESTS,
                      sizes.serve_warmup + sizes.serve_requests)
        self.frames = [tenant_frames(seed, i, serve_n) for i in range(TENANTS)]
        self.metrics: Dict[str, float] = {}
        #: Exact counts the budget multiplies unit costs by.
        self.counts: Dict[str, float] = {}

    def run(self) -> Dict[str, float]:
        for probe in (
            self.cli, self.traces_layer, self.hss, self.core, self.rl_forward,
            self.rl_train, self.baselines, self.runner, self.lanes,
            self.kernels, self.parallel, self.grid_layers, self.protocol,
            self.serve_lane, self.serve_engine,
        ):
            with self.spans.span(f"probe.{probe.__name__}"):
                probe()
        return self.metrics

    # ------------------------------------------------------------------ cli
    def cli(self) -> None:
        out, err = self.scratch / "cli.out", self.scratch / "cli.err"
        walls = [
            env.run_child([sys.executable, "-m", "repro", "workloads"],
                          out, err).wall_s
            for _ in range(3)
        ]
        self.metrics["cli.startup_s"] = statistics.median(walls)

    # --------------------------------------------------------------- traces
    def traces_layer(self) -> None:
        from repro.traces.workloads import make_trace

        self.metrics["traces.make_trace_ms"] = 1e3 * statistics.mean(
            _median_s(lambda: make_trace(name, n_requests=self.n, seed=self.seed))
            for name in CAMPAIGN_TRACES
        )

    # ------------------------------------------------------------------ hss
    def hss(self) -> None:
        from repro.sim.runner import build_hss

        evictions = 0
        for label, name in (("write_heavy", "rsrch_0"), ("read_heavy", "hm_1")):
            trace = self.traces[name]
            systems = []

            def serve_all() -> None:
                hss = build_hss(CONFIG, trace)
                serve = hss.serve
                for request in trace:
                    serve(request, 0)
                systems.append(hss)

            self.metrics[f"hss.serve_us.{label}"] = \
                1e6 * _median_s(serve_all) / len(trace)
            evictions += systems[-1].stats.eviction_events
        self.metrics["hss.evictions_per_req"] = \
            evictions / (self.n * len(CAMPAIGN_TRACES))

    # ----------------------------------------------------------------- core
    def attached_agent(self, seed: int, train: bool):
        """A fresh agent on a fresh HSS sized for the rsrch_0 trace."""
        from repro.core.agent import SibylAgent
        from repro.core.hyperparams import SIBYL_DEFAULT
        from repro.sim.runner import build_hss

        hp = SIBYL_DEFAULT if train else \
            dataclasses.replace(SIBYL_DEFAULT, train_interval=_NEVER)
        trace = self.traces[SWEEP_TRACE]
        agent = SibylAgent(hyperparams=hp, seed=seed)
        hss = build_hss(CONFIG, trace)
        agent.attach(hss)
        return agent, hss, trace

    def core(self) -> None:
        agent, hss, trace = self.attached_agent(self.seed, train=False)
        clock = time.perf_counter
        begin_s = feedback_s = 0.0
        memo_hits = 0
        for request in trace:
            t0 = clock()
            obs = agent.place_begin(request)
            t1 = clock()
            if obs is None:
                memo_hits += 1
                action = agent.place_commit(None)
            else:
                action = agent.place_commit(agent.inference_net.best_action(obs))
            result = hss.serve(request, action)
            t2 = clock()
            agent.feedback(request, action, result)
            feedback_s += clock() - t2
            begin_s += t1 - t0
        self.metrics["core.place_begin_us"] = 1e6 * begin_s / len(trace)
        self.metrics["core.feedback_us"] = 1e6 * feedback_s / len(trace)
        self.metrics["core.memo_hit_ratio"] = memo_hits / len(trace)
        self._agent = agent  # rl_forward probes this agent's network

    # ------------------------------------------------------------------- rl
    def rl_forward(self) -> None:
        import numpy as np

        from repro.rl.c51 import C51LaneStack

        agent = self._agent
        obs = agent.extractor.observe(self.traces[SWEEP_TRACE][0])
        net = agent.inference_net
        calls = 2000

        def single() -> None:
            for _ in range(calls):
                net.best_action(obs)

        self.metrics["rl.forward_us"] = 1e6 * _median_s(single) / calls
        stack = C51LaneStack([net] * _FUSED_ROWS)
        rows = np.tile(obs, (_FUSED_ROWS, 1))

        def fused() -> None:
            for _ in range(calls):
                stack.best_actions(rows)

        self.metrics["rl.fused_forward_us_per_row"] = \
            1e6 * _median_s(fused) / (calls * _FUSED_ROWS)

    def trained_agents(self, count: int) -> List[Any]:
        agents = []
        for lane in range(count):
            agent, hss, trace = self.attached_agent(self.seed + lane, train=True)
            for request in trace[:1500]:
                action = agent.place(request)
                agent.feedback(request, action, hss.serve(request, action))
            agents.append(agent)
        return agents

    def rl_train(self) -> None:
        from repro.sim.lanes import fused_train_event

        agents = self.trained_agents(_LANES)
        events = 5

        def serial() -> None:
            for _ in range(events):
                agents[0].train_begin()
                agents[0].train_commit()

        self.metrics["rl.train_event_ms"] = 1e3 * _median_s(serial) / events
        cache: Dict[str, Any] = {}

        def fused() -> None:
            for _ in range(events):
                for agent in agents:
                    # fused_train_event commits every lane's begin inside
                    # the stacked backward, out of the pair check's sight.
                    agent.train_begin()  # sibyl: ignore[SBL-HOOK]
                fused_train_event(agents, cache, "probe")

        fused()  # builds the stacked buffers outside the timed region
        self.metrics["rl.fused_train_event_ms_per_lane"] = \
            1e3 * _median_s(fused) / (events * _LANES)

    # ------------------------------------------------------------ baselines
    def baselines(self) -> None:
        from repro.baselines import make_policy
        from repro.sim.runner import run_policy

        for name in ("fast-only", "slow-only", "cde", "hps", "archivist",
                     "rnn-hss", "oracle"):
            kwargs = {"seed": self.seed} if name in ("archivist", "rnn-hss") else {}
            wall = sum(
                _median_s(lambda: run_policy(
                    make_policy(name, **kwargs), trace, config=CONFIG,
                    warmup_fraction=self.warmup), repeats=1)
                for trace in self.traces.values()
            )
            metric = f"baselines.{name.replace('-', '_')}_us_per_req"
            self.metrics[metric] = 1e6 * wall / (self.n * len(self.traces))

    # ------------------------------------------------------------------ sim
    def runner(self) -> None:
        from repro.core.agent import SibylAgent
        from repro.sim.runner import run_policy

        trace = self.traces[SWEEP_TRACE]
        wall = _median_s(lambda: run_policy(
            SibylAgent(seed=self.seed), trace, config=CONFIG,
            warmup_fraction=self.warmup), repeats=1)
        self.metrics["sim.runner.sibyl_us_per_req"] = 1e6 * wall / len(trace)

    def lane_specs(self, count: int, train: bool) -> List[Any]:
        from repro.core.agent import SibylAgent
        from repro.core.hyperparams import SIBYL_DEFAULT
        from repro.sim.lanes import LaneSpec

        hp = SIBYL_DEFAULT if train else \
            dataclasses.replace(SIBYL_DEFAULT, train_interval=_NEVER)
        return [
            LaneSpec(policy=SibylAgent(hyperparams=hp, seed=self.seed + lane),
                     trace=self.traces[SWEEP_TRACE], config=CONFIG,
                     warmup_fraction=self.warmup)
            for lane in range(count)
        ]

    def lanes(self) -> None:
        from repro.sim.lanes import run_lanes

        stats: Dict[str, int] = {}
        started = time.perf_counter()
        run_lanes(self.lane_specs(_LANES, train=True), backend="off", stats=stats)
        wall = time.perf_counter() - started
        self.metrics["sim.lanes.lockstep_us_per_req"] = \
            1e6 * wall / (_LANES * self.n)
        self.metrics["sim.lanes.fused_rows_per_forward"] = \
            stats["fused_rows"] / max(1, stats["fused_forwards"])

    def kernels(self) -> None:
        from repro.sim.lanes import run_lanes

        def per_request(backend: str, train: bool) -> float:
            wall = _median_s(lambda: run_lanes(
                self.lane_specs(1, train), backend=backend))
            return 1e6 * wall / self.n

        m = self.metrics
        m["sim.kernels.tick_us_per_req.cext"] = per_request("cext", False)
        m["sim.kernels.tick_us_per_req.numpy"] = per_request("numpy", False)
        m["sim.kernels.lane_us_per_req.cext"] = per_request("cext", True)
        stats: Dict[str, int] = {}
        run_lanes(self.lane_specs(1, True), backend="cext", stats=stats)
        m["sim.kernels.barriers_per_1k_req"] = \
            1e3 * stats["kernel_barriers"] / max(1, stats["ticks"])
        self.counts["train_events_per_lane"] = stats["train_events"]

    def parallel(self) -> None:
        from repro.sim.parallel import Cell, run_many

        cells = [Cell(key=i, fn=_trivial_cell, kwargs={"index": i})
                 for i in range(2 * env.PARALLEL)]
        pooled = _median_s(lambda: run_many(cells, max_workers=env.PARALLEL,
                                            lane_pack=1))
        serial = _median_s(lambda: run_many(cells, max_workers=1, lane_pack=1))
        self.metrics["sim.parallel.fanout_overhead_s"] = pooled - serial

    # ------------------------------------------------- campaign/report/store
    def grid_layers(self) -> None:
        from repro.sim.campaign import (
            aggregate_seeds,
            compare_cell_seeds,
            seeded_compare_cell,
        )
        from repro.sim.report import export_json, format_table
        from repro.store import CampaignStore

        seeds = tuple(range(self.seed, self.seed + self.sizes.campaign_seeds))
        per_seed = {
            name: compare_cell_seeds(name, CONFIG, _GRID_REQUESTS, seeds)
            for name in CAMPAIGN_TRACES
        }
        grid: Dict[str, Any] = {}

        def aggregate() -> None:
            for name, rows in per_seed.items():
                grid[name] = aggregate_seeds(rows, seeds=seeds)

        self.metrics["sim.campaign.aggregate_ms"] = \
            1e3 * _median_s(aggregate) / len(per_seed)

        def render() -> None:
            policies = list(next(iter(grid.values())))
            rows = [
                {"workload": name, **{p: by[p]["latency"] for p in policies}}
                for name, by in grid.items()
            ]
            format_table(rows, title="probe")
            export_json(grid)

        self.metrics["sim.report.render_ms"] = 1e3 * _median_s(render)

        store = CampaignStore(self.scratch / "probe-store")
        kwargs = dict(workload=SWEEP_TRACE, config=CONFIG,
                      n_requests=_GRID_REQUESTS, seeds=seeds,
                      warmup_fraction=self.warmup)
        result = grid[SWEEP_TRACE]
        fingerprint = store.fingerprint(seeded_compare_cell, kwargs)
        m = self.metrics
        m["store.fingerprint_ms"] = 1e3 * _median_s(
            lambda: store.fingerprint(seeded_compare_cell, kwargs))
        m["store.put_ms"] = 1e3 * _median_s(
            lambda: store.put(fingerprint, result, fn=seeded_compare_cell,
                              key=SWEEP_TRACE))
        m["store.get_ms"] = 1e3 * _median_s(lambda: store.get(fingerprint))
        blobs = list((self.scratch / "probe-store" / "cells").rglob("*.json"))
        m["store.bytes_per_cell"] = float(blobs[0].stat().st_size)

    # ---------------------------------------------------------------- serve
    def protocol(self) -> None:
        from repro.serve.protocol import (
            decode_frame,
            encode_frame,
            ok_frame,
            parse_query,
        )

        frame = self.frames[0][0]
        line = encode_frame(frame).strip()
        reply = ok_frame({
            "op": "place", "tenant": "tenant-0", "seq": 4242, "action": 1,
            "device": 1, "latency_s": 8.731e-05, "eviction_time_s": 0.0,
            "timing": {"queue_ms": 0.0312, "service_ms": 0.0457},
        }, id=4242)
        calls = 5000

        def decode() -> None:
            for _ in range(calls):
                parse_query(decode_frame(line))

        def encode() -> None:
            for _ in range(calls):
                encode_frame(reply)

        self.metrics["serve.protocol.decode_us"] = 1e6 * _median_s(decode) / calls
        self.metrics["serve.protocol.encode_us"] = 1e6 * _median_s(encode) / calls

    def serve_lane(self) -> None:
        frames = self.frames[0]
        wall = _median_s(lambda: offline_replay(self.seed, frames), repeats=1)
        self.metrics["serve.lane.offline_us_per_req"] = 1e6 * wall / len(frames)

    def serve_engine(self) -> None:
        from repro.serve.engine import PlacementEngine
        from repro.serve.protocol import parse_query

        streams = [
            [parse_query(frame) for frame in frames]
            for frames in self.frames
        ]
        engine = PlacementEngine()
        engine.start()
        try:
            for index in range(TENANTS):
                job = engine.submit(parse_query({
                    "op": "open", "tenant": f"tenant-{index}",
                    "seed": self.seed + index, "head": "c51", "config": CONFIG,
                    "capacity_pages": SERVE_CAPACITY,
                }))
                if not job.wait(30.0) or not job.response.get("ok"):
                    raise RuntimeError(f"in-process open failed: {job.response}")
            started = time.perf_counter()
            for queries in zip(*streams):
                jobs = [engine.submit(query) for query in queries]
                for job in jobs:
                    if not job.wait(30.0):
                        raise TimeoutError("in-process placement timed out")
            wall = time.perf_counter() - started
        finally:
            engine.stop()
        self.metrics["serve.engine.inproc_us_per_req"] = \
            1e6 * wall / (TENANTS * len(streams[0]))


def run_probes(seed: int, sizes: Sizes, scratch: Path,
               spans: SpanLog) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Every probe metric, and the exact counts the budget needs."""
    probes = _Probes(seed, sizes, scratch, spans)
    return probes.run(), probes.counts
