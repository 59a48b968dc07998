#!/usr/bin/env python3
"""The repo's benchmark: one command, every metric by name.

    python3 bench/run.py [--workload NAME ...] [--seed N] [--seconds S]
                         [--trace [0|1]] [--quick] [--out PATH] [--aa]

Without ``--workload`` all four workloads run in turn.  Each prints its
metrics by name with unit, sample count and quartiles, runs its
correctness checks, and ends with one JSON line::

    {"correct": true, "attempted": 7, "failed": 0, "metrics": {...}}

``--trace 0`` (default) measures the end-to-end metrics with tracing
off.  ``--trace 1`` (or a bare ``--trace``) is the separate traced run:
it alternates untraced and traced repetitions, runs the per-layer
probes, prints the layer budget and the two staircases, writes
``bench/out/<workload>.trace.json``, and its JSON line carries the
per-layer metrics.  ``--aa`` runs every workload A B A B and checks the
benchmark against its own bounds.  Exit status: 0 = all checks passed,
1 = a check failed, 2 = cannot run here, 3 = ``auto`` did not resolve
to the compiled kernel.  Metric definitions: ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def load_contract() -> Dict[str, Any]:
    """``BENCHMARK.json``: the metric names, units, directions, bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def measure(name: str, seed: int, seconds: float, sizes, traced: bool,
            scratch_root: Path):
    """Run one workload's repetitions; returns (outcome, spans, reps)."""
    from sibylbench.stats import SpanLog
    from sibylbench.workloads import make_workload

    spans = SpanLog()
    workload = make_workload(name, seed, sizes, scratch_root / name, spans)
    # A traced run alternates untraced and traced repetitions, so the
    # tracing overhead is an interleaved comparison inside one run.
    need = 2 * max(1, sizes.min_reps - 1) if traced else sizes.min_reps
    # ``seconds`` is wall time of this loop, set-ups included (set-up is
    # measured too).  A further repetition runs only while at least half
    # of it still fits, so a run overshoots by half a repetition at most
    # and its total wall time stays predictable on a slower box.
    loop_started = time.perf_counter()
    rep_wall = 0.0
    reps = 0
    workload.calibrator.start()
    try:
        while (reps < need or
               time.perf_counter() - loop_started + rep_wall / 2 <= seconds):
            rep_traced = traced and reps % 2 == 1
            spans.rep = reps
            with spans.span("repetition", traced=rep_traced):
                started = time.perf_counter()
                workload.rep_deadline = started + seconds / need
                with spans.span("setup"):
                    workload.setup(rep_traced)
                ready = time.perf_counter()
                workload.timed("setup_s", ready - started, started, ready)
                with spans.span("measure"):
                    workload.repetition(rep_traced)
                rep_wall = time.perf_counter() - started
            reps += 1
        spans.rep = None
        workload.calibrator.stop()
        outcome = workload.outcome()
    finally:
        workload.calibrator.abort()
        workload.teardown()
    return outcome, spans, reps


def end_to_end(outcome) -> Dict[str, Dict[str, float]]:
    """One run's end-to-end values: as measured, and as reported."""
    samples = outcome.samples
    raw = {
        "setup_s": statistics.median(samples["setup_s"]),
        "op_p50_ms": statistics.median(samples["op_ms"]),
        "req_per_s": statistics.median(samples["req_per_s"]),
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
    }

    # Host times are reported scaled to the nominal box (calibrate.py),
    # each sample by the bursts that ran beside it: a time multiplies by
    # the scale, a rate divides, a size is left alone.
    def scaled(key: str, rate: bool = False) -> float:
        scales = [outcome.calibrator.scale(*span) for span in outcome.intervals[key]]
        return statistics.median(
            value / k if rate else value * k
            for value, k in zip(samples[key], scales)
        )

    reported = dict(
        raw,
        setup_s=scaled("setup_s"),
        op_p50_ms=scaled("op_ms"),
        req_per_s=scaled("req_per_s", rate=True),
    )
    return {"raw": raw, "reported": reported}


def merge_traces(name: str, outcome, spans) -> Dict[str, Any]:
    """Bench spans + every program trace, on the harness's clock.

    A program's timestamps count from its own tracer's creation, so its
    events are shifted to end where the harness saw the process end.
    Returns what the traces say: spans dropped, the pool's busy share.
    """
    from sibylbench.budget import worker_busy_share
    from sibylbench.env import OUT_DIR

    events = spans.trace_events()
    dropped = 0
    busy: List[float] = []
    for path, record in outcome.program_traces:
        if path is None or not path.exists():
            continue
        doc = json.loads(path.read_text())
        program = doc.get("traceEvents", [])
        dropped += int(doc.get("otherData", {}).get("dropped", 0))
        busy.append(worker_busy_share(program))
        if not program:
            continue
        last = max(e["ts"] + e.get("dur", 0.0) for e in program)
        shift = max(0.0, record["end"] - last)
        for event in program:
            event = dict(event)
            event["ts"] = round(event["ts"] + shift, 3)
            event.setdefault("args", {})["bench_span"] = record["id"]
            events.append(event)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    target = OUT_DIR / f"{name}.trace.json"
    target.write_text(json.dumps({
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"dropped": dropped, "workload": name},
    }, separators=(",", ":")))
    return {
        "path": target,
        "dropped": dropped,
        "busy_share": statistics.median(busy) if busy else 0.0,
    }


def per_layer(name: str, seed: int, sizes, outcome, spans, scratch_root: Path,
              raw: Dict[str, float]) -> Dict[str, Any]:
    """Probes + observed counts + budget for a traced run.

    Everything here is raw host time: the budget prices raw unit costs
    against raw CPU seconds of the same run.
    """
    from sibylbench import budget
    from sibylbench.probes import run_probes
    from sibylbench.stats import tail_percentile

    probe_dir = scratch_root / f"{name}-probes"
    probe_dir.mkdir(parents=True, exist_ok=True)
    metrics, counts = run_probes(seed, sizes, probe_dir, spans)
    # Observed metrics read 0 on a workload that bypasses their layer.
    metrics.update(dict.fromkeys((
        "store.hit_ratio",
        "serve.engine.queue_ms_p50", "serve.engine.service_ms_p50",
        "serve.engine.hold_ms_p50", "serve.engine.trainer_occupancy",
        "serve.engine.rounds_per_req", "serve.engine.fused_rows_per_forward",
        "serve.daemon.open_ms", "serve.daemon.wire_ms_p50",
        "serve.daemon.sojourn_p99_ms", "serve.daemon.sojourn_p999_ms",
    ), 0.0))
    metrics.update(outcome.observed)
    samples = outcome.samples
    if name == "serve_closed":
        metrics["serve.daemon.wire_ms_p50"] = (
            raw["op_p50_ms"] - metrics["serve.engine.queue_ms_p50"]
            - metrics["serve.engine.service_ms_p50"]
        )
        metrics["serve.daemon.sojourn_p99_ms"] = \
            tail_percentile(outcome.round_trips_ms, 99.0)
        metrics["serve.daemon.sojourn_p999_ms"] = \
            tail_percentile(outcome.round_trips_ms, 99.9)
    traces = merge_traces(name, outcome, spans)
    cpu_s = statistics.median(samples["cpu_s"])
    traced_ms = samples["op_ms_traced"]
    metrics["sim.latency_norm"] = outcome.sim_latency_norm
    metrics["sim.latency_us"] = outcome.sim_latency_us
    metrics["proc.cpu_s"] = cpu_s
    metrics["obs.trace_overhead_pct"] = (
        100.0 * (statistics.median(traced_ms) / raw["op_p50_ms"] - 1.0)
        if traced_ms else 0.0
    )
    metrics["obs.spans_dropped"] = float(traces["dropped"])
    metrics["host.calibration_ms"] = statistics.median(outcome.calibrator.cpu_ms)
    metrics["sim.parallel.worker_busy_share"] = traces["busy_share"]
    rows = budget.budget_rows(name, dict(outcome.counts, **counts), metrics)
    rest = budget.unattributed(rows, cpu_s)
    metrics["budget.unattributed_share"] = rest / cpu_s if cpu_s else 0.0
    return {
        "metrics": metrics,
        "rows": rows,
        "unattributed_s": rest,
        "cpu_s": cpu_s,
        "staircases": budget.staircases(metrics, raw, name),
        "trace_path": traces["path"],
    }


def report(name: str, contract: Dict[str, Any], outcome, reps: int,
           e2e: Dict[str, Dict[str, float]],
           layers: Optional[Dict[str, Any]]) -> None:
    """Print one workload's metrics by name, then its checks."""
    from sibylbench.calibrate import NOMINAL_MS
    from sibylbench.stats import summary

    why = next(w["why"] for w in contract["workloads"] if w["name"] == name)
    print(f"== {name}  seed={outcome.seed}  repetitions={reps} ==")
    print(f"   {why}")
    sample_of = {"setup_s": "setup_s", "op_p50_ms": "op_ms",
                 "req_per_s": "req_per_s", "peak_rss_mb": "peak_rss_mb"}
    note = "  (untraced half of this traced run)" if layers else ""
    print(f"   end-to-end metrics, host time{note}:")
    for spec in contract["end_to_end"]:
        metric = spec["name"]
        s = summary(outcome.samples[sample_of[metric]])
        print(f"   {metric:<18} {_fmt(e2e['reported'][metric]):>12} "
              f"{spec['unit']:<5} {spec['better']:<6} bound {spec['bound']:<5}"
              f" raw p50={_fmt(s['p50'])} q1={_fmt(s['q1'])} q3={_fmt(s['q3'])}"
              f" n={s['n']}")
    bursts = summary(outcome.calibrator.cpu_ms)
    print(f"   each time is scaled by {NOMINAL_MS:g} ms / the mean calibration "
          f"burst beside it; this run's bursts p50={_fmt(bursts['p50'])} ms "
          f"q1={_fmt(bursts['q1'])} q3={_fmt(bursts['q3'])} n={bursts['n']}")
    print("   simulated results (simulated time; exact for this seed):")
    print(f"   {'sim_latency_norm':<18} {_fmt(outcome.sim_latency_norm):>12} ratio"
          "  Sibyl's mean request latency / Fast-Only")
    print(f"   {'sim_latency_us':<18} {_fmt(outcome.sim_latency_us):>12} us")
    print(f"   {'result_digest':<18} {outcome.digest}")
    share = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"   {'failed_share':<18} {_fmt(share):>12}        "
          f"{outcome.failed} of {outcome.attempted} operations")
    for failure in outcome.failures:
        print(f"   CHECK FAILED: {failure}")
    if layers is None:
        return
    print("   per-layer metrics, raw host time (probes; counters and the traced "
          "half of this run):")
    units = {spec["name"]: spec["unit"] for spec in contract["per_layer"]}
    for metric in sorted(layers["metrics"]):
        print(f"   {metric:<40} {_fmt(layers['metrics'][metric]):>12}"
              f" {units.get(metric, '?')}")
    cpu_s = layers["cpu_s"]
    print(f"   budget of one operation against proc.cpu_s = {_fmt(cpu_s)} s:")
    for layer, seconds in layers["rows"]:
        print(f"     {layer:<40} {seconds:>9.4f} s {100 * seconds / cpu_s:>7.2f} %")
    rest = layers["unattributed_s"]
    print(f"     {'unattributed':<40} {rest:>9.4f} s {100 * rest / cpu_s:>7.2f} %")
    for title, rungs in layers["staircases"]:
        ladder = "  ->  ".join(f"{label} = {_fmt(us)}" for label, us in rungs)
        print(f"   staircase ({title}, us per request): {ladder}")
    print(f"   trace written to {layers['trace_path']}")


def result_line(contract: Dict[str, Any], outcome,
                e2e: Dict[str, Dict[str, float]],
                layers: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """The driver's JSON object: exactly the contract's metric names."""
    if layers is None:
        specs, values = contract["end_to_end"], e2e["reported"]
    else:
        specs, values = contract["per_layer"], layers["metrics"]
    missing = [s["name"] for s in specs if s["name"] not in values]
    extra = sorted(set(values) - {s["name"] for s in specs})
    if missing or extra:
        raise RuntimeError(
            f"measured metrics and BENCHMARK.json disagree: "
            f"missing {missing}, unlisted {extra}"
        )
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
            for s in specs
        },
    }


def run_workload(name: str, args, contract: Dict[str, Any], sizes,
                 scratch_root: Path) -> Dict[str, Any]:
    """Measure, report and print the result line of one workload."""
    traced = bool(args.trace)
    outcome, spans, reps = measure(
        name, args.seed, args.seconds, sizes, traced, scratch_root)
    e2e = end_to_end(outcome)
    layers = None
    if traced:
        layers = per_layer(name, args.seed, sizes, outcome, spans,
                           scratch_root, e2e["raw"])
    report(name, contract, outcome, reps, e2e, layers)
    line = result_line(contract, outcome, e2e, layers)
    print(json.dumps(line), flush=True)
    return {
        "workload": name, "seed": args.seed, "repetitions": reps,
        "digest": outcome.digest, "end_to_end": e2e,
        "sim_latency_norm": outcome.sim_latency_norm,
        "sim_latency_us": outcome.sim_latency_us,
        "samples": outcome.samples, "intervals": outcome.intervals,
        "calibration": {"at": outcome.calibrator.at,
                        "cpu_ms": outcome.calibrator.cpu_ms},
        "per_layer": layers["metrics"] if layers else None,
        "failures": outcome.failures, "result": line,
    }


def run_aa(names: Sequence[str], args, contract: Dict[str, Any], sizes,
           scratch_root: Path) -> bool:
    """A B A B per workload: the benchmark against its own bounds."""
    from sibylbench.stats import spread, within_bound, worse_by

    ok = True
    for name in names:
        runs = []
        for label in "ABAB":
            outcome, _, reps = measure(
                name, args.seed, args.seconds, sizes, False, scratch_root)
            runs.append((end_to_end(outcome)["reported"], outcome))
            print(f"[aa] {name} {label}: repetitions={reps} "
                  f"failed={outcome.failed}/{outcome.attempted}", flush=True)
        ok &= all(outcome.failed == 0 for _, outcome in runs)
        exact = {(o.digest, o.sim_latency_norm, o.sim_latency_us) for _, o in runs}
        ok &= len(exact) == 1
        print(f"[aa] {name:<14} result_digest, sim_latency_norm, sim_latency_us: "
              + ("equal in all four runs" if len(exact) == 1 else f"DIFFER {exact}"))
        for spec in contract["end_to_end"]:
            metric = spec["name"]
            values = [reported[metric] for reported, _ in runs]
            a = statistics.median(values[0::2])
            b = statistics.median(values[1::2])
            gap = max(worse_by(a, b, spec["better"]),
                      worse_by(b, a, spec["better"]))
            agree = (within_bound(a, b, spec["better"], spec["bound"])
                     and within_bound(b, a, spec["better"], spec["bound"]))
            ok &= agree
            print(f"[aa] {name:<14} {metric:<12} A={_fmt(a)} B={_fmt(b)} "
                  f"gap {100 * gap:.2f}% (bound {100 * spec['bound']:.0f}%) "
                  f"spread of the four {100 * spread(values):.2f}%"
                  + ("" if agree else "  OUT OF BOUND"))
    print("[aa] PASS" if ok else "[aa] FAIL")
    return ok


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark with a per-layer budget.")
    parser.add_argument("--workload", nargs="+", metavar="NAME",
                        help="workloads to run (default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed of campaigns and tenant streams")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring wall time per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: the separate traced run (per-layer metrics)")
    parser.add_argument("--quick", action="store_true",
                        help="smoke sizes: seconds, not minutes")
    parser.add_argument("--out", metavar="PATH",
                        help="also write the full report as JSON")
    parser.add_argument("--aa", action="store_true",
                        help="A B A B per workload against the bounds")
    args = parser.parse_args(argv)

    # serve_closed stops its daemon with Ctrl-C.  A caller that started
    # the harness with SIGINT ignored (a shell's background job) would
    # pass that on to the daemon, which then never sees it; a handler,
    # unlike SIG_IGN, is reset to the default across exec.
    if signal.getsignal(signal.SIGINT) is signal.SIG_IGN:
        signal.signal(signal.SIGINT, signal.default_int_handler)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found: the benchmark "
              "measures the program in this checkout and there is none",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    from sibylbench import env
    from sibylbench.workloads import FULL, QUICK, WORKLOADS, BackendMismatch

    contract = load_contract()
    declared = [w["name"] for w in contract["workloads"]]
    if sorted(declared) != sorted(WORKLOADS):
        print("error: BENCHMARK.json workloads and bench/ disagree",
              file=sys.stderr)
        return 2
    names = args.workload or declared
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {declared}")
    sizes = QUICK if args.quick else FULL
    if args.seconds is None:
        args.seconds = 0.0 if args.quick else float(contract["run_seconds"])

    scratch_root = env.OUT_DIR / f"tmp-{os.getpid()}"
    try:
        if args.aa:
            return 0 if run_aa(names, args, contract, sizes, scratch_root) else 1
        host = env.host_report()
        reports = [
            run_workload(name, args, contract, sizes, scratch_root)
            for name in names
        ]
        # Every set-up checked it; anything else left through exit 3.
        host["backend"] = "cext"
        print("host: " + json.dumps(host), file=sys.stderr)
        if args.out:
            Path(args.out).write_text(json.dumps(
                {"host": host, "quick": args.quick, "workloads": reports},
                indent=1, default=str) + "\n")
        return 0 if all(r["result"]["correct"] for r in reports) else 1
    except BackendMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(scratch_root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
