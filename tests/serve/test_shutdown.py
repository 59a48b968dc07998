"""The ``shutdown`` op against real traced daemon processes.

The op used to hand the teardown to a reaper thread that raced the main
thread's exit: one reply in ten was lost, and under ``--trace`` both
threads flushed the tracer through the same tmp file (torn traces, a
``FileNotFoundError`` exit).  Thirty daemons in a row must now each
acknowledge the op, exit 0, and leave a trace ``check_trace`` accepts.
"""

from __future__ import annotations

import importlib.util
import json
import os
import signal
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.obs.tracer import SpanTracer
from repro.serve.daemon import PlacementDaemon
from repro.serve.loadgen import synthetic_stream

from serve_harness import DEADLINE_S, FAST_HP, Client

ROOT = Path(__file__).resolve().parents[2]
N_DAEMONS = 30


def _check_trace():
    spec = importlib.util.spec_from_file_location(
        "check_trace", ROOT / "scripts" / "check_trace.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _serve_then_shutdown(trace_path: Path, signum=None):
    """One daemon process: a few placements, then the ``shutdown`` op
    (or, given ``signum``, that signal and no reply).

    Returns ``(shutdown reply, exit code, stderr)``.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--trace", str(trace_path)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        banner = proc.stdout.readline()  # "serving on HOST:PORT"
        host, port = banner.split()[-1].rsplit(":", 1)
        with Client((host, int(port))) as client:
            assert client.rpc({
                "op": "open", "tenant": "t", "hyperparams": FAST_HP,
            })["ok"]
            for frame in synthetic_stream(seed=1, n=30):
                assert client.rpc({**frame, "tenant": "t"})["ok"]
            if signum is None:
                reply = client.rpc({"op": "shutdown"})
            else:
                reply = proc.send_signal(signum)
        _, stderr = proc.communicate(timeout=DEADLINE_S)
        return reply, proc.returncode, stderr
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


def test_shutdown_op_is_always_acknowledged_and_leaves_a_whole_trace(tmp_path):
    paths = [tmp_path / f"daemon-{i}.trace.json" for i in range(N_DAEMONS)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        outcomes = list(pool.map(_serve_then_shutdown, paths))
    checker = _check_trace()
    for path, (reply, returncode, stderr) in zip(paths, outcomes):
        assert reply == {"ok": True, "op": "shutdown"}, reply
        assert returncode == 0, stderr
        problems = checker.validate_trace(
            json.loads(path.read_text()), min_events=30
        )
        assert not problems, (path.name, problems)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        p.name for p in paths
    ), "a flush left its tmp file behind"


def test_close_is_idempotent_and_serve_forever_returns_after_teardown():
    daemon = PlacementDaemon(port=0, request_timeout_s=DEADLINE_S)
    served = threading.Thread(target=daemon.serve_forever, daemon=True)
    served.start()
    with Client(daemon.address) as client:
        assert client.rpc({"op": "shutdown"})["ok"]
    served.join(DEADLINE_S)
    assert not served.is_alive(), "serve_forever never returned"
    # Teardown finished before serve_forever returned: the engine
    # thread is gone, and closing again (twice, concurrently) is a no-op.
    assert not daemon.engine._thread.is_alive()
    closers = [threading.Thread(target=daemon.close) for _ in range(2)]
    for closer in closers:
        closer.start()
    for closer in closers:
        closer.join(DEADLINE_S)
        assert not closer.is_alive()


def test_concurrent_flushes_leave_a_complete_trace(tmp_path):
    target = tmp_path / "trace.json"
    tracer = SpanTracer(path=str(target), capacity=4096)
    for i in range(500):
        tracer.instant("tick", i=i)
    errors = []

    def flush_many():
        try:
            for _ in range(20):
                tracer.flush()
        except Exception as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=flush_many) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(DEADLINE_S)
        assert not thread.is_alive()
    assert not errors, errors
    assert len(json.loads(target.read_text())["traceEvents"]) == 500
    assert [p.name for p in tmp_path.iterdir()] == ["trace.json"]


def test_sigterm_tears_down_like_ctrl_c(tmp_path):
    """SIGTERM — what a supervisor sends — used to kill ``repro serve``
    outright: exit -15, ``close()`` never run, the trace never written."""
    trace_path = tmp_path / "daemon.trace.json"
    _, returncode, stderr = _serve_then_shutdown(trace_path, signal.SIGTERM)
    assert returncode == 0, stderr
    problems = _check_trace().validate_trace(
        json.loads(trace_path.read_text()), min_events=30
    )
    assert not problems, problems
    assert [p.name for p in tmp_path.iterdir()] == [trace_path.name]
