"""Unit tests for the metrics registry (repro.obs.metrics)."""

import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    RegistrySink,
    active_registry,
    registry,
)


class TestCounter:
    def test_monotonic(self):
        reg = MetricsRegistry()
        c = reg.counter("reqs")
        c.add(3)
        c.inc()
        assert c.value == 4

    def test_negative_add_rejected(self):
        c = MetricsRegistry().counter("reqs")
        with pytest.raises(ValueError):
            c.add(-1)

    def test_labels_address_distinct_instruments(self):
        reg = MetricsRegistry()
        hit = reg.counter("store_get", outcome="hit")
        miss = reg.counter("store_get", outcome="miss")
        hit.add(2)
        miss.add(5)
        assert reg.counter("store_get", outcome="hit") is hit
        snap = reg.snapshot()["counters"]
        assert snap["store_get{outcome=hit}"] == 2
        assert snap["store_get{outcome=miss}"] == 5


class TestGauge:
    def test_set_add_set_max(self):
        g = MetricsRegistry().gauge("depth")
        g.set(4)
        g.add(-1)
        g.set_max(10)
        g.set_max(2)
        assert g.value == 10


class TestHistogram:
    def test_summary_counts_and_bounds(self):
        h = Histogram("lat_ms", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 0.7, 5.0, 50.0, 5000.0):
            h.observe(v)
        summary = h.summary()
        assert summary["count"] == 5
        assert summary["min"] == 0.5
        assert summary["max"] == 5000.0
        assert summary["buckets"] == {1.0: 2, 10.0: 1, 100.0: 1}
        assert summary["overflow"] == 1

    def test_percentile_bucket_resolution(self):
        h = Histogram("lat_ms", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 0.5, 0.5, 50.0):
            h.observe(v)
        assert h.percentile(50) == 1.0
        assert h.percentile(100) == 100.0
        assert Histogram("empty").percentile(50) is None

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("bad", buckets=(10.0, 1.0))

    def test_thread_safety_no_lost_updates(self):
        h = Histogram("lat_ms", buckets=DEFAULT_BUCKETS)

        def worker():
            for _ in range(1000):
                h.observe(1.0)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert h.count == 4000


class TestRegistryGate:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("SIBYL_OBS", raising=False)
        assert active_registry() is None

    def test_enabled_returns_process_registry(self, monkeypatch):
        monkeypatch.setenv("SIBYL_OBS", "on")
        assert active_registry() is registry()

    def test_garbage_raises(self, monkeypatch):
        monkeypatch.setenv("SIBYL_OBS", "verbose")
        with pytest.raises(ValueError):
            active_registry()


class TestRegistrySink:
    def test_counts_and_maxima_land_prefixed(self):
        reg = MetricsRegistry()
        sink = RegistrySink(reg)
        sink.count("ticks", 7)
        sink.record_max("max_fused_rows", 3)
        sink.record_max("max_fused_rows", 2)
        snap = reg.snapshot()
        assert snap["counters"]["engine_ticks"] == 7
        assert snap["gauges"]["engine_max_fused_rows"] == 3
