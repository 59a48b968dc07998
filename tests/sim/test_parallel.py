"""Tests for the parallel experiment engine (repro.sim.parallel)."""

import json
import os
import socket
import subprocess
import sys

import pytest

from repro.obs.tracer import SpanTracer, set_tracer
from repro.serve.daemon import PlacementDaemon
from repro.sim import blas
from repro.sim.blas import blas_threads, limit_blas_threads
from repro.sim.experiment import buffer_size_sweep, hyperparameter_sweep
from repro.sim.parallel import (
    Cell,
    iter_many,
    resolve_workers,
    run_grid,
    run_many,
)


def _square(x):
    return x * x


def _fail():
    raise RuntimeError("boom")


def _dispatch_args(cells, max_workers):
    """Run ``cells`` on a pool under a tracer; the ``campaign.dispatch``
    span's arguments."""
    tracer = set_tracer(SpanTracer(capacity=64))
    try:
        results = run_many(cells, max_workers=max_workers)
    finally:
        set_tracer(None)
    (dispatch,) = [
        e for e in tracer.events() if e["name"] == "campaign.dispatch"
    ]
    return results, dispatch["args"]


def _rpc(address, *frames):
    """Send ``frames`` to a daemon one at a time; their replies."""
    with socket.create_connection(address, timeout=20) as sock, \
            sock.makefile("rwb") as wire:
        replies = []
        for frame in frames:
            wire.write((json.dumps(frame) + "\n").encode())
            wire.flush()
            replies.append(json.loads(wire.readline()))
        return replies


class TestCell:
    def test_run_inline(self):
        cell = Cell(key="k", fn=_square, kwargs={"x": 3})
        assert cell.run() == 9

    def test_default_kwargs(self):
        assert Cell(key=0, fn=os.getpid).run() == os.getpid()


class TestResolveWorkers:
    def test_single_cell_is_serial(self):
        assert resolve_workers(1, max_workers=8) == 0

    def test_explicit_workers_capped_by_cells(self):
        assert resolve_workers(3, max_workers=16) == 3

    def test_one_worker_means_serial(self):
        assert resolve_workers(10, max_workers=1) == 0

    def test_env_serial(self, monkeypatch):
        monkeypatch.setenv("SIBYL_PARALLEL", "serial")
        assert resolve_workers(10) == 0

    def test_env_integer(self, monkeypatch):
        monkeypatch.setenv("SIBYL_PARALLEL", "4")
        assert resolve_workers(10) == 4

    def test_env_auto_uses_cpu_count(self, monkeypatch):
        monkeypatch.setenv("SIBYL_PARALLEL", "auto")
        cpus = len(os.sched_getaffinity(0))
        expected = min(cpus, 64) if cpus > 1 else 0
        assert resolve_workers(64) == expected

    @pytest.mark.skipif(
        len(os.sched_getaffinity(0)) < 2, reason="needs two usable cores"
    )
    def test_auto_width_follows_the_affinity_mask(self, monkeypatch):
        """A ``taskset``/cgroup-limited process gets one worker per core
        it may run on, not one per host core."""
        monkeypatch.delenv("SIBYL_PARALLEL", raising=False)
        allowed = os.sched_getaffinity(0)
        assert resolve_workers(64) == min(len(allowed), 64)
        try:
            os.sched_setaffinity(0, {min(allowed)})
            assert resolve_workers(64) == 0  # one usable core: serial
        finally:
            os.sched_setaffinity(0, allowed)
        assert resolve_workers(64) == min(len(allowed), 64)

    def test_env_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv("SIBYL_PARALLEL", "many")
        with pytest.raises(ValueError):
            resolve_workers(10)

    def test_env_negative_rejected(self, monkeypatch):
        """A negative count is a misconfiguration, not a silent request
        for the serial path."""
        monkeypatch.setenv("SIBYL_PARALLEL", "-3")
        with pytest.raises(ValueError):
            resolve_workers(10)

    def test_env_zero_means_serial(self, monkeypatch):
        monkeypatch.setenv("SIBYL_PARALLEL", "0")
        assert resolve_workers(10) == 0


class TestRunMany:
    def test_serial_results_in_order(self):
        cells = [Cell(key=i, fn=_square, kwargs={"x": i}) for i in range(5)]
        out = run_many(cells, max_workers=1)
        assert out == [(i, i * i) for i in range(5)]

    def test_pool_results_in_order(self):
        cells = [Cell(key=i, fn=_square, kwargs={"x": i}) for i in range(5)]
        out = run_many(cells, max_workers=2)
        assert out == [(i, i * i) for i in range(5)]

    def test_pool_matches_serial(self):
        cells = [Cell(key=i, fn=_square, kwargs={"x": i}) for i in range(7)]
        assert run_many(cells, max_workers=1) == run_many(cells, max_workers=3)

    def test_empty_grid(self):
        assert run_many([]) == []

    def test_worker_exception_propagates(self):
        cells = [Cell(key=0, fn=_fail), Cell(key=1, fn=_fail)]
        with pytest.raises(RuntimeError):
            run_many(cells, max_workers=2)

    def test_run_grid_merges(self):
        cells = [Cell(key=i, fn=_square, kwargs={"x": i}) for i in range(3)]
        assert run_grid(cells, max_workers=1) == {0: 0, 1: 1, 2: 4}


def _blas_threads_in_cell():
    return blas_threads()


@pytest.mark.skipif(blas_threads() is None, reason="no known BLAS is mapped")
class TestThreadTopology:
    """Workers are the parallelism: a process executing cells runs BLAS
    on one thread, and only while it executes them; a ``repro serve``
    process runs it on one thread for its whole life."""

    @pytest.fixture(autouse=True)
    def two_thread_baseline(self):
        # Whatever the box, the calling process starts from a count
        # that is not the pin, so "restored" is distinguishable.
        with limit_blas_threads(2):
            yield

    def _cells(self, n=4):
        return [Cell(key=i, fn=_blas_threads_in_cell) for i in range(n)]

    def test_pool_workers_run_one_blas_thread(self):
        assert run_many(self._cells(), max_workers=2) == [
            (i, 1) for i in range(4)
        ]
        assert blas_threads() == 2  # the parent was never pinned

    def test_serial_path_is_pinned_then_restored(self):
        assert run_many(self._cells(), max_workers=1) == [
            (i, 1) for i in range(4)
        ]
        assert blas_threads() == 2

    def test_in_process_pack_is_pinned_then_restored(self):
        # One chunk -> one "worker" -> the pack runs in this process.
        assert run_many(self._cells(), max_workers=2, lane_pack=64) == [
            (i, 1) for i in range(4)
        ]
        assert blas_threads() == 2

    def test_serial_stream_is_unpinned_between_cells(self):
        stream = iter_many(self._cells(), max_workers=1)
        assert next(stream) == (0, 1)
        assert blas_threads() == 2  # the consumer's code runs unpinned
        assert list(stream) == [(i, 1) for i in range(1, 4)]

    def test_restored_when_a_cell_raises(self):
        with pytest.raises(RuntimeError):
            run_many([Cell(key=0, fn=_fail), Cell(key=1, fn=_fail)],
                     max_workers=1)
        assert blas_threads() == 2

    def test_in_process_daemon_leaves_the_callers_count_alone(self):
        """The library rule: embedding ``PlacementDaemon`` pins nothing."""
        if blas_threads() is None:
            pytest.skip("no known BLAS mapped")
        run_many(self._cells(), max_workers=1)
        run_many(self._cells(), max_workers=2)
        with PlacementDaemon(port=0) as daemon:
            (metrics,) = _rpc(daemon.address, {"op": "metrics"})
            assert metrics["blas_threads"] == 2
        assert blas_threads() == 2

    def test_repro_serve_process_runs_one_blas_thread(self):
        """The process rule: ``repro serve`` is pinned once, at start."""
        if blas_threads() is None:
            pytest.skip("no known BLAS mapped")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            banner = proc.stdout.readline()  # "serving on HOST:PORT"
            host, port = banner.split()[-1].rsplit(":", 1)
            metrics, shutdown = _rpc(
                (host, int(port)), {"op": "metrics"}, {"op": "shutdown"}
            )
            assert metrics["ok"] and shutdown["ok"], (metrics, shutdown)
            assert metrics["blas_threads"] == 1
            assert proc.wait(timeout=60) == 0, proc.stderr.read()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            proc.stderr.close()

    def test_pin_does_not_depend_on_import_order(self):
        """A fresh interpreter that has imported neither NumPy nor the
        engine still finds the BLAS: the lookup loads NumPy itself, so a
        pin made before the first cell imports anything is not cached as
        a no-op for the life of the process."""
        script = (
            "import sys\n"
            "from repro.sim.blas import blas_threads\n"
            "from repro.sim.parallel import Cell, run_many\n"
            "assert 'numpy' not in sys.modules\n"
            "cells = [Cell(key=i, fn=blas_threads) for i in range(4)]\n"
            "print(run_many(cells, max_workers=2), blas_threads() is not None,"
            " run_many(cells[:1], max_workers=1))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[0] == (
            f"{[(i, 1) for i in range(4)]} True [(0, 1)]"
        )

    def test_topology_reaches_the_dispatch_span(self):
        _, args = _dispatch_args(self._cells(), max_workers=2)
        assert args["workers"] == 2
        assert args["blas_threads"] == 1


def test_unrecognised_blas_is_a_silent_noop(monkeypatch):
    """No known BLAS mapped: cells still run, and the dispatch span says
    the pin did nothing (``blas_threads`` 0)."""
    monkeypatch.setattr(blas, "_mapped_openblas", lambda: [])
    blas._controls.cache_clear()
    try:
        assert blas_threads() is None
        cells = [Cell(key=i, fn=_square, kwargs={"x": i}) for i in range(3)]
        assert run_many(cells, max_workers=1) == [(0, 0), (1, 1), (2, 4)]
        results, args = _dispatch_args(cells, max_workers=2)
        assert results == [(0, 0), (1, 1), (2, 4)]
        assert args["blas_threads"] == 0
    finally:
        blas._controls.cache_clear()


class TestIterMany:
    """Streaming delivery: same results as run_many, arriving as cells
    complete instead of all at once."""

    def test_serial_streams_in_cell_order(self):
        cells = [Cell(key=i, fn=_square, kwargs={"x": i}) for i in range(4)]
        assert list(iter_many(cells, max_workers=1)) == [
            (i, i * i) for i in range(4)
        ]

    def test_serial_is_lazy(self):
        """The serial path must yield before later cells run — that is
        the whole point of streaming into a report."""
        cells = [Cell(key=i, fn=_square, kwargs={"x": i}) for i in range(3)]
        stream = iter_many(cells, max_workers=1)
        assert next(stream) == (0, 0)  # no exception from later cells

    def test_pool_matches_run_many_as_set(self):
        cells = [Cell(key=i, fn=_square, kwargs={"x": i}) for i in range(6)]
        streamed = sorted(iter_many(cells, max_workers=2))
        assert streamed == run_many(cells, max_workers=2)

    def test_pool_with_packing(self):
        cells = [Cell(key=i, fn=_square, kwargs={"x": i}) for i in range(7)]
        streamed = sorted(iter_many(cells, max_workers=2, lane_pack=3))
        assert streamed == [(i, i * i) for i in range(7)]

    def test_empty(self):
        assert list(iter_many([])) == []

    def test_worker_exception_propagates(self):
        cells = [Cell(key=0, fn=_fail), Cell(key=1, fn=_fail)]
        with pytest.raises(RuntimeError):
            list(iter_many(cells, max_workers=2))


class TestOnCell:
    def test_run_grid_on_cell_fires_per_cell(self):
        cells = [Cell(key=i, fn=_square, kwargs={"x": i}) for i in range(4)]
        seen = []
        out = run_grid(
            cells, max_workers=1,
            on_cell=lambda key, result: seen.append((key, result)),
        )
        assert seen == [(i, i * i) for i in range(4)]
        assert out == {i: i * i for i in range(4)}

    def test_run_grid_key_order_preserved_under_pool(self):
        cells = [Cell(key=i, fn=_square, kwargs={"x": i}) for i in range(5)]
        out = run_grid(cells, max_workers=2)
        assert list(out) == list(range(5))


class TestSweepEquivalence:
    """Parallel sweeps must be bit-identical to the serial path: each
    cell is deterministically seeded and self-contained, so fan-out can
    only change wall-clock time, never results."""

    def test_buffer_size_sweep_bit_identical(self):
        kwargs = dict(workload="rsrch_0", config="H&M", n_requests=600)
        serial = buffer_size_sweep((8, 32), max_workers=1, **kwargs)
        fanned = buffer_size_sweep((8, 32), max_workers=2, **kwargs)
        assert serial == fanned  # float equality: bit-identical or bust

    def test_hyperparameter_sweep_bit_identical(self):
        kwargs = dict(workload="rsrch_0", config="H&M", n_requests=600)
        serial = hyperparameter_sweep(
            "discount", (0.0, 0.9), max_workers=1, **kwargs
        )
        fanned = hyperparameter_sweep(
            "discount", (0.0, 0.9), max_workers=2, **kwargs
        )
        assert serial == fanned

    def test_sweep_key_order_preserved(self):
        out = buffer_size_sweep(
            (32, 8), workload="rsrch_0", n_requests=400, max_workers=2
        )
        assert list(out) == [32, 8]


class TestLanePacking:
    """``lane_pack`` cell packing: scheduling granularity only, results
    and ordering unchanged."""

    def test_pack_matches_unpacked(self):
        cells = [Cell(key=i, fn=_square, kwargs={"x": i}) for i in range(7)]
        unpacked = run_many(cells, max_workers=2, lane_pack=1)
        packed = run_many(cells, max_workers=2, lane_pack=3)
        assert packed == unpacked == [(i, i * i) for i in range(7)]

    def test_pack_larger_than_grid(self):
        cells = [Cell(key=i, fn=_square, kwargs={"x": i}) for i in range(3)]
        assert run_many(cells, max_workers=2, lane_pack=64) == [
            (i, i * i) for i in range(3)
        ]

    def test_pack_serial_path_unaffected(self):
        cells = [Cell(key=i, fn=_square, kwargs={"x": i}) for i in range(4)]
        assert run_many(cells, max_workers=1, lane_pack=2) == [
            (i, i * i) for i in range(4)
        ]
