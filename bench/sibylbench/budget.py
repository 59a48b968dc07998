"""The layer budget: probe unit costs x exact counts against measured CPU.

A row is ``(layer, seconds)`` for one operation; its
share is taken of the program's measured CPU time (``proc.cpu_s``).
What the rows do not explain is reported as its own row,
``unattributed``, never spread over the others — so rows plus
``budget.unattributed_share`` sum to 100% by construction, and a
negative remainder means the probes over-explain (a probe's serial
unit cost is higher than what the program pays in its batched path).
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from . import env

__all__ = ["budget_rows", "unattributed", "staircases", "worker_busy_share"]

Row = Tuple[str, float]


def _lane_rows(m: Dict[str, float], lanes: float, requests: float,
               train_events: float) -> List[Row]:
    """Rows of ``lanes`` kernel-run Sibyl lanes of ``requests`` each."""
    tick = 1e-6 * m["sim.kernels.tick_us_per_req.cext"] * requests
    lane = 1e-6 * m["sim.kernels.lane_us_per_req.cext"] * requests
    train = 1e-3 * m["rl.train_event_ms"] * train_events
    return [
        ("sim.kernels (tick)", lanes * tick),
        ("rl (training events)", lanes * train),
        ("sim.kernels+rl (barriers, forwards)",
         lanes * max(0.0, lane - tick - train)),
    ]


def budget_rows(workload: str, counts: Dict[str, float],
                m: Dict[str, float]) -> List[Row]:
    """One operation of ``workload`` priced layer by layer."""
    from repro.sim.experiment import ORACLE_HORIZONS

    startup = ("cli (interpreter, imports)", m["cli.startup_s"])
    render = ("sim.report (table, JSON)", 1e-3 * m["sim.report.render_ms"])
    if workload == "serve_closed":
        placements = counts["placements"]
        offline = 1e-6 * m["serve.lane.offline_us_per_req"]
        inproc = 1e-6 * m["serve.engine.inproc_us_per_req"]
        wire = 1e-6 * (m["serve.protocol.decode_us"] + m["serve.protocol.encode_us"])
        return [
            startup,
            ("serve.protocol (decode, encode)", placements * wire),
            ("serve.lane (core, hss, rl)", placements * offline),
            ("serve.engine (inbox, rounds)",
             placements * max(0.0, inproc - offline)),
        ]
    cells = counts["cells"]
    if workload == "campaign_warm":
        return [
            startup,
            ("store (fingerprint, get)",
             cells * 1e-3 * (m["store.fingerprint_ms"] + m["store.get_ms"])),
            render,
        ]
    requests = counts["requests_per_lane"]
    lanes = cells * counts["seeds"]
    rows = [
        startup,
        ("traces (make_trace)", lanes * 1e-3 * m["traces.make_trace_ms"]),
        ("baselines.fast_only (reference)",
         lanes * requests * 1e-6 * m["baselines.fast_only_us_per_req"]),
    ]
    if workload == "campaign_cold":
        for name in ("slow_only", "cde", "hps", "archivist", "rnn_hss"):
            rows.append((
                f"baselines.{name}",
                lanes * requests * 1e-6 * m[f"baselines.{name}_us_per_req"],
            ))
        rows.append((
            f"baselines.oracle (x{len(ORACLE_HORIZONS)} horizons)",
            len(ORACLE_HORIZONS) * lanes * requests
            * 1e-6 * m["baselines.oracle_us_per_req"],
        ))
    rows += _lane_rows(m, lanes, requests, counts["train_events_per_lane"])
    if workload == "campaign_cold":
        rows.append((
            "store (fingerprint, put)",
            cells * 1e-3 * (m["store.fingerprint_ms"] + m["store.put_ms"]),
        ))
    rows += [
        ("sim.campaign (aggregate)", cells * 1e-3 * m["sim.campaign.aggregate_ms"]),
        render,
        ("sim.parallel (fan-out)", max(0.0, m["sim.parallel.fanout_overhead_s"])),
    ]
    return rows


def unattributed(rows: Sequence[Row], cpu_s: float) -> float:
    """CPU seconds the rows leave unexplained (negative: over-explained)."""
    return cpu_s - sum(seconds for _, seconds in rows)


def staircases(m: Dict[str, float], e2e: Dict[str, float],
               workload: str) -> List[Tuple[str, List[Tuple[str, float]]]]:
    """The two per-request cost ladders, in microseconds per request.

    The last rung is this run's own end-to-end number when the workload
    supplies it (wall time, so pool parallelism is folded in).
    """
    sim = [
        ("sim.kernels.tick_us_per_req.cext", m["sim.kernels.tick_us_per_req.cext"]),
        ("sim.kernels.lane_us_per_req.cext", m["sim.kernels.lane_us_per_req.cext"]),
    ]
    if workload == "campaign_cold":
        sim.append(("campaign_cold 1e6/req_per_s", 1e6 / e2e["req_per_s"]))
    serve = [
        ("serve.lane.offline_us_per_req", m["serve.lane.offline_us_per_req"]),
        ("serve.engine.inproc_us_per_req", m["serve.engine.inproc_us_per_req"]),
    ]
    if workload == "serve_closed":
        serve.append(("serve_closed 1e6/req_per_s", 1e6 / e2e["req_per_s"]))
    return [("simulation", sim), ("serving", serve)]


def worker_busy_share(events: Sequence[Dict[str, Any]]) -> float:
    """Pool workers' busy share, from one program trace's campaign spans.

    The program records ``campaign.dispatch`` when the chunks are
    submitted and ``campaign.collect`` as each one's result arrives, so
    a chunk's span is the time since its worker became free: the
    dispatch for the first ``workers`` chunks, the completion
    ``workers`` places earlier for the rest.  Busy share is the sum of
    chunk spans over ``workers x`` the pool's wall.  0 when the
    campaign never fanned out (a warm store, a daemon).
    """
    dispatch = [e for e in events if e["name"] == "campaign.dispatch"]
    if not dispatch:
        return 0.0
    start = dispatch[0]["ts"]
    free_at = dispatch[0]["ts"] + dispatch[0]["dur"]
    workers = int(dispatch[0].get("args", {}).get("workers", env.PARALLEL))
    ends = sorted(
        e["ts"] + e["dur"] for e in events if e["name"] == "campaign.collect"
    )
    if not ends:
        return 0.0
    busy = 0.0
    for index, end in enumerate(ends):
        begin = free_at if index < workers else ends[index - workers]
        busy += end - begin
    return busy / (workers * (ends[-1] - start))
