"""Unit tests for the fixed-bucket histogram (repro.obs.metrics)."""

import threading

import pytest

from repro.obs.metrics import DEFAULT_BUCKETS, Histogram


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
