"""Tests for MSRC CSV parsing and serialisation."""

import io

import pytest

from repro.hss.request import OpType
from repro.traces.msrc import (
    StreamingMSRCTrace,
    dump_msrc_csv,
    iter_msrc_csv,
    load_msrc_csv,
    parse_msrc_rows,
)
from repro.traces.workloads import make_trace


class TestParse:
    def test_basic_row(self):
        rows = [["128166372003061629", "hm", "0", "Read", "8192", "8192", "100"]]
        trace = parse_msrc_rows(rows)
        assert len(trace) == 1
        assert trace[0].op == OpType.READ
        assert trace[0].page == 2  # 8192 / 4096
        assert trace[0].size == 2
        assert trace[0].timestamp == 0.0  # rebased

    def test_timestamps_rebased_and_sorted(self):
        rows = [
            ["20000000", "h", "0", "Write", "0", "4096", "0"],
            ["10000000", "h", "0", "Read", "4096", "4096", "0"],
        ]
        trace = parse_msrc_rows(rows)
        assert trace[0].op == OpType.READ
        assert trace[0].timestamp == 0.0
        assert trace[1].timestamp == pytest.approx(1.0)  # 10M ticks = 1 s

    def test_size_rounds_up_to_pages(self):
        rows = [["0", "h", "0", "Read", "0", "1", "0"]]
        assert parse_msrc_rows(rows)[0].size == 1
        rows = [["0", "h", "0", "Read", "0", "4097", "0"]]
        assert parse_msrc_rows(rows)[0].size == 2

    def test_zero_size_skipped(self):
        rows = [["0", "h", "0", "Read", "0", "0", "0"]]
        assert parse_msrc_rows(rows) == []

    def test_comments_skipped(self):
        rows = [["# header"], ["0", "h", "0", "Read", "0", "4096", "0"]]
        assert len(parse_msrc_rows(rows)) == 1

    def test_malformed_raises(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_msrc_rows([["1", "2", "3"]])

    def test_empty(self):
        assert parse_msrc_rows([]) == []


class TestRoundTrip:
    def test_dump_and_load(self, tmp_path):
        trace = make_trace("rsrch_0", n_requests=100, seed=1)
        path = tmp_path / "trace.csv"
        dump_msrc_csv(trace, path)
        loaded = load_msrc_csv(path)
        assert len(loaded) == len(trace)
        for orig, back in zip(trace, loaded):
            assert back.op == orig.op
            assert back.page == orig.page
            assert back.size == orig.size
            # Tick resolution is 100 ns.
            assert back.timestamp == pytest.approx(
                orig.timestamp - trace[0].timestamp, abs=1e-6
            )

    def test_stringio_roundtrip(self):
        trace = make_trace("hm_1", n_requests=20, seed=0)
        buf = io.StringIO()
        dump_msrc_csv(trace, buf)
        buf.seek(0)
        assert len(load_msrc_csv(buf)) == 20


class TestStreamingIterator:
    """iter_msrc_csv / StreamingMSRCTrace: chunk-by-chunk ingestion that
    matches the materialising loader exactly."""

    def _write_trace(self, tmp_path, n=300, shuffle_window=0, seed=0):
        import random

        trace = make_trace("rsrch_0", n_requests=n, seed=seed)
        path = tmp_path / "stream.csv"
        dump_msrc_csv(trace, path)
        if shuffle_window:
            # Jitter row order within a bounded window to mimic the mild
            # disorder of real captures.
            lines = path.read_text().splitlines()
            rng = random.Random(seed)
            for i in range(0, len(lines) - shuffle_window, shuffle_window):
                block = lines[i:i + shuffle_window]
                rng.shuffle(block)
                lines[i:i + shuffle_window] = block
            path.write_text("\n".join(lines) + "\n")
        return path

    def test_stream_equals_load(self, tmp_path):
        path = self._write_trace(tmp_path)
        assert list(iter_msrc_csv(path)) == load_msrc_csv(path)

    def test_stream_equals_load_with_jitter(self, tmp_path):
        path = self._write_trace(tmp_path, shuffle_window=16)
        assert list(iter_msrc_csv(path, reorder_window=64)) == load_msrc_csv(path)

    def test_out_of_window_disorder_raises(self, tmp_path):
        path = self._write_trace(tmp_path, n=200)
        lines = path.read_text().splitlines()
        # Move the first (earliest) row far beyond a tiny window.
        lines.append(lines.pop(0))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="out of order"):
            list(iter_msrc_csv(path, reorder_window=4))

    def test_streaming_trace_is_sized_and_reiterable(self, tmp_path):
        path = self._write_trace(tmp_path, n=150)
        source = StreamingMSRCTrace(path)
        assert len(source) == 150
        assert list(source) == list(source)  # independent passes
        capped = StreamingMSRCTrace(path, max_requests=40)
        assert len(capped) == 40

    def _tracked_open(self, monkeypatch):
        """Patch ``open`` inside the msrc module to record file handles."""
        import builtins

        import repro.traces.msrc as msrc_module

        handles = []
        real_open = builtins.open

        def tracking_open(*args, **kwargs):
            handle = real_open(*args, **kwargs)
            handles.append(handle)
            return handle

        monkeypatch.setattr(msrc_module, "open", tracking_open, raising=False)
        return handles

    def test_reorder_error_closes_file(self, tmp_path, monkeypatch):
        """The reorder-window ValueError must not leak the handle."""
        path = self._write_trace(tmp_path, n=200)
        lines = path.read_text().splitlines()
        lines.append(lines.pop(0))
        path.write_text("\n".join(lines) + "\n")
        handles = self._tracked_open(monkeypatch)
        with pytest.raises(ValueError, match="out of order"):
            list(iter_msrc_csv(path, reorder_window=4))
        assert handles and all(handle.closed for handle in handles)

    def test_abandoned_iterator_closes_on_close(self, tmp_path, monkeypatch):
        """A consumer that stops early can release the handle
        deterministically via the generator protocol."""
        path = self._write_trace(tmp_path, n=100)
        handles = self._tracked_open(monkeypatch)
        stream = iter_msrc_csv(path, reorder_window=8)
        next(stream)
        assert handles and not handles[0].closed
        stream.close()
        assert handles[0].closed

    def test_truncated_streaming_trace_closes_at_limit(self, tmp_path,
                                                       monkeypatch):
        """Hitting max_requests must close the underlying file at the
        truncation point, not leave it pinned to a suspended reader."""
        path = self._write_trace(tmp_path, n=120)
        handles = self._tracked_open(monkeypatch)
        source = StreamingMSRCTrace(path, max_requests=30)
        assert len(list(source)) == 30
        assert handles and all(handle.closed for handle in handles)

    def test_streaming_trace_reiterable_after_failed_pass(self, tmp_path):
        """A pass that dies on the reorder check must leave the trace
        usable: the next pass starts from scratch and fails (or
        succeeds) identically instead of inheriting broken state."""
        path = self._write_trace(tmp_path, n=200)
        lines = path.read_text().splitlines()
        lines.append(lines.pop(0))
        path.write_text("\n".join(lines) + "\n")
        source = StreamingMSRCTrace(path, reorder_window=4)
        for _ in range(2):
            with pytest.raises(ValueError, match="out of order"):
                list(source)
        # A wide-enough window over the same object then succeeds.
        recovered = StreamingMSRCTrace(path, reorder_window=512)
        assert len(recovered) == 200

    def test_streaming_trace_fingerprint_stable(self, tmp_path):
        path = self._write_trace(tmp_path, n=50)
        a = StreamingMSRCTrace(path)
        b = StreamingMSRCTrace(path)
        assert a.fingerprint == b.fingerprint
        assert StreamingMSRCTrace(path, max_requests=10).fingerprint != a.fingerprint

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            StreamingMSRCTrace(tmp_path / "absent.csv")

    def test_run_policy_streaming_matches_list(self, tmp_path):
        """A full simulation fed by the streaming source is bit-identical
        to one fed by the materialised request list."""
        from repro.baselines.cde import CDEPolicy
        from repro.sim.runner import run_policy

        path = self._write_trace(tmp_path, n=400)
        materialised = load_msrc_csv(path)
        streamed = StreamingMSRCTrace(path)
        assert run_policy(CDEPolicy(), streamed, config="H&M") == run_policy(
            CDEPolicy(), materialised, config="H&M"
        )

    def test_sweep_cell_msrc_source(self, tmp_path):
        """The `msrc:<path>` workload form routes sweep cells through the
        streaming reader."""
        from repro.sim.campaign import _resolve_trace

        path = self._write_trace(tmp_path, n=120)
        source = _resolve_trace(f"msrc:{path}", n_requests=100, seed=0)
        assert isinstance(source, StreamingMSRCTrace)
        assert len(source) == 100
