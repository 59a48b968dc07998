"""The benchmark's own tests: contract shape, a quick end-to-end pass, stats.

Collected by the tier-1 suite.  The two subprocess tests run the real
harness at ``--quick`` sizes (a few seconds each); everything else is
pure arithmetic.
"""

from __future__ import annotations

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from sibylbench.stats import (  # noqa: E402
    SpanLog,
    percentile,
    quartiles,
    self_time,
    spread,
    summary,
    tail_percentile,
    within_bound,
    worse_by,
)

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args: str) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--quick", *args],
        capture_output=True, text=True, timeout=170, cwd=str(ROOT),
    )
    if proc.returncode == 3:
        pytest.skip("compiled kernel unavailable: " + proc.stderr.strip()[-200:])
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return proc


def result_lines(stdout: str):
    return [json.loads(line) for line in stdout.splitlines()
            if line.startswith('{"correct"')]


# ------------------------------------------------------------------ contract
def test_contract_shape():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert CONTRACT["paths"] == ["bench"]
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    assert 1 <= CONTRACT["run_seconds"] <= 60
    for workload in CONTRACT["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for spec in CONTRACT["end_to_end"]:
        assert set(spec) == {"name", "unit", "better", "bound"}
        assert 0 <= spec["bound"] <= 0.25
    for spec in CONTRACT["per_layer"]:
        assert set(spec) == {"name", "unit", "better"}
    specs = CONTRACT["end_to_end"] + CONTRACT["per_layer"]
    names = [s["name"] for s in CONTRACT["workloads"] + specs]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(s["unit"]) for s in specs)
    assert all(s["better"] in ("lower", "higher") for s in specs)
    setup = next(s for s in CONTRACT["end_to_end"] if s["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(s["bound"] for s in CONTRACT["end_to_end"])


# --------------------------------------------------------------- quick passes
def test_quick_run_reports_every_end_to_end_metric(tmp_path):
    out = tmp_path / "report.json"
    proc = run_bench("--out", str(out))
    lines = result_lines(proc.stdout)
    declared = [w["name"] for w in CONTRACT["workloads"]]
    assert len(lines) == len(declared)
    expected = {s["name"]: s["unit"] for s in CONTRACT["end_to_end"]}
    for name, line in zip(declared, lines):
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
        assert all(v["value"] > 0 for v in line["metrics"].values()), name
        assert f"== {name} " in proc.stdout
    for metric in expected:
        assert metric in proc.stdout
    report = json.loads(out.read_text())
    assert [w["workload"] for w in report["workloads"]] == declared
    assert all(len(w["digest"]) == 64 for w in report["workloads"])
    # Warm and cold serve the same grid, so their digests must agree.
    digests = {w["workload"]: w["digest"] for w in report["workloads"]}
    assert digests["campaign_cold"] == digests["campaign_warm"]


def test_quick_traced_run_reports_every_layer_metric():
    proc = run_bench("--workload", "serve_closed", "--trace", "1")
    (line,) = result_lines(proc.stdout)
    expected = {s["name"]: s["unit"] for s in CONTRACT["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    assert line["correct"] is True
    assert "unattributed" in proc.stdout and "staircase (serving" in proc.stdout
    for metric in expected:
        assert metric in proc.stdout
    trace = json.loads((BENCH_DIR / "out" / "serve_closed.trace.json").read_text())
    names = {event["name"] for event in trace["traceEvents"]}
    assert {"repetition", "setup", "measure", "probe.cli"} <= names
    assert "serve.round" in names, "the daemon's own spans were not merged"
    checker = ROOT / "scripts" / "check_trace.py"
    if checker.exists():
        spec = importlib.util.spec_from_file_location("check_trace", checker)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.validate_trace(trace) == []


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    target = tmp_path / "bench"
    target.mkdir()
    (target / "run.py").write_text((BENCH_DIR / "run.py").read_text())
    proc = subprocess.run(
        [sys.executable, str(target / "run.py"), "--workload", "campaign_cold"],
        capture_output=True, text=True, timeout=60, cwd=str(tmp_path),
    )
    assert proc.returncode != 0
    assert not result_lines(proc.stdout)


# --------------------------------------------------------------------- stats
def test_percentile_is_nearest_rank():
    values = [15, 20, 35, 40, 50]
    assert percentile(values, 5) == 15
    assert percentile(values, 30) == 20
    assert percentile(values, 40) == 20
    assert percentile(values, 50) == 35
    assert percentile(values, 100) == 50
    assert percentile([3, 1, 2], 50) == 2  # input need not be sorted


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(999)), 99.0) == 0.0
    assert tail_percentile(list(range(1000)), 99.0) == 989
    assert tail_percentile(list(range(1000)), 99.9) == 0.0


def test_median_and_quartiles_match_the_drivers_method():
    import statistics

    values = [2.0, 4.0, 4.0, 5.0, 7.0, 9.0, 11.0, 12.0, 13.0, 20.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, q2, q3)
    assert summary(values) == {"n": 10, "p50": 8.0, "q1": q1, "q3": q3}
    assert spread(values) == (q3 - q1) / q2
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_bound_comparison_respects_direction():
    assert worse_by(100.0, 108.0, "lower") == pytest.approx(0.08)
    assert worse_by(100.0, 92.0, "lower") == pytest.approx(-0.08)
    assert worse_by(100.0, 92.0, "higher") == pytest.approx(0.08)
    assert within_bound(100.0, 110.0, "lower", 0.10)
    assert not within_bound(100.0, 110.1, "lower", 0.10)
    assert within_bound(100.0, 500.0, "higher", 0.10)
    assert not within_bound(100.0, 89.0, "higher", 0.10)
    with pytest.raises(ValueError):
        worse_by(1.0, 1.0, "sideways")


def test_span_self_time_subtracts_covered_children():
    def span(id_, start, end, parent):
        return {"id": id_, "start": start, "end": end, "parent": parent}

    spans = [
        span(0, 0.0, 100.0, None),
        span(1, 10.0, 30.0, 0),
        span(2, 20.0, 50.0, 0),    # overlaps span 1: union is 10..50
        span(3, 90.0, 120.0, 0),   # sticks out: clipped to 90..100
        span(4, 12.0, 18.0, 1),    # grandchild: not the parent's business
    ]
    assert self_time(spans[0], spans) == 100.0 - (40.0 + 10.0)
    assert self_time(spans[1], spans) == 20.0 - 6.0
    assert self_time(spans[4], spans) == 6.0


def test_span_log_records_parents_and_repetitions():
    log = SpanLog()
    log.rep = 7
    with log.span("outer", traced=False) as outer:
        with log.span("inner") as inner:
            pass
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
    events = log.trace_events()
    assert [e["name"] for e in events] == ["outer", "inner"]
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)
    assert events[1]["args"]["rep"] == 7


def test_calibrator_scales_an_interval_by_the_bursts_beside_it():
    from sibylbench.calibrate import NOMINAL_MS, Calibrator

    cal = Calibrator()
    cal.at = [float(i) for i in range(10)]
    cal.cpu_ms = [1.0] * 5 + [2.0] * 5
    assert cal.burst_ms(0.0, 4.0) == 1.0
    assert cal.burst_ms(5.0, 9.0) == 2.0
    assert cal.scale(5.0, 9.0) == NOMINAL_MS / 2.0
    # Too short to hold five bursts: borrows the nearest in time.
    assert cal.burst_ms(0.1, 0.2) == 1.0
    assert cal.burst_ms(8.5, 8.6) == 2.0
    assert cal.burst_ms(4.4, 4.6) == pytest.approx(7.0 / 5.0)
    with pytest.raises(RuntimeError):
        Calibrator().burst_ms(0.0, 1.0)
